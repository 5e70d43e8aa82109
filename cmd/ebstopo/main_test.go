package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: a dimension flag outside [1, 255] or an unknown drill exits 2
// with a message and prints no fabric; an in-range run prints the fabric it
// built.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stdout string
		stderr string
	}{
		{"-racks 0", 2, "", "ebstopo: -racks 0 is outside [1, 255]"},
		{"-hosts 300", 2, "", "ebstopo: -hosts 300 is outside [1, 255]"},
		{"-spines 256", 2, "", "ebstopo: -spines 256 is outside [1, 255]"},
		{"-cores -1", 2, "", "ebstopo: -cores -1 is outside [1, 255]"},
		{"-nosuchflag", 2, "", "flag provided but not defined"},
		{"-drill nosuch", 2, "", "ebstopo: -drill nosuch is not one of tor|spine|core|blackhole"},
		{"-racks 1 -hosts 255", 0, "2 pods x 1 racks x 255 hosts = 510 hosts", ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ebstopo %s: exit %d, stdout %q, stderr %q; want exit %d, stdout containing %q, stderr containing %q",
				tc.args, code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
		}
		if tc.code == 2 && stdout.Len() != 0 {
			t.Errorf("ebstopo %s: exit 2 after printing %q", tc.args, stdout.String())
		}
	}
}
