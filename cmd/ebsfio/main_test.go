package main

import (
	"bytes"
	"strings"
	"testing"
)

// Out-of-range flags must be refused up front: workload.NewFio would
// otherwise substitute its defaults and the header would print values the
// run did not use.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the one-line message
	}{
		{[]string{"-bs", "0"}, "-bs 0"},
		{[]string{"-bs", "-4096"}, "-bs -4096"},
		{[]string{"-depth", "0"}, "-depth 0"},
		{[]string{"-read", "2"}, "-read 2"},
		{[]string{"-read", "-0.1"}, "-read -0.1"},
		{[]string{"-read", "NaN"}, "-read NaN"},
		{[]string{"-runtime", "-1ms"}, "-runtime -1ms"},
		{[]string{"-runtime", "0"}, "-runtime 0s"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, got)
		}
		msg := stderr.String()
		if !strings.Contains(msg, c.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line naming %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout = %q, want nothing", c.args, stdout.String())
		}
	}
}

// The header reports the values the run used.
func TestRunPrintsEffectiveFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-bs", "8192", "-depth", "4", "-read", "0.5", "-runtime", "1ms"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr %q", got, stderr.String())
	}
	if want := "stack=solar bs=8192 depth=4 read=0.50 window=1ms\n"; !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout = %q, want it to start with %q", stdout.String(), want)
	}
}
