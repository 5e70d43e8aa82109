package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

// Out-of-range flags and unknown stacks are refused with exit 2 before a
// cluster is built, so the header never prints a value the run did not
// use.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the one-line message
	}{
		{[]string{"-bs", "0"}, "-bs 0"},
		{[]string{"-bs", "-4096"}, "-bs -4096"},
		{[]string{"-bs", "16777217"}, "-bs 16777217"},
		{[]string{"-depth", "0"}, "-depth 0"},
		{[]string{"-read", "2"}, "-read 2"},
		{[]string{"-read", "-0.1"}, "-read -0.1"},
		{[]string{"-read", "NaN"}, "-read NaN"},
		{[]string{"-runtime", "-1ms"}, "-runtime -1ms"},
		{[]string{"-runtime", "0"}, "-runtime 0s"},
		{[]string{"-stack", "nosuch"}, "-stack nosuch"},
		{[]string{"-cores", "-1"}, "-cores -1"},
		{[]string{"-baremetal=false", "-stack", "solar"}, "-baremetal=false"},
		{[]string{"-baremetal=false", "-stack", "solar*"}, "-baremetal=false"},
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

// Failed I/Os are counted apart from completed ones, stay out of IOPS,
// bandwidth and latency, and make the run exit 1.
func TestTallyCountsFailedIOs(t *testing.T) {
	tl := tally{h: stats.NewHistogram()}
	tl.add(&workload.IO{Write: true, Size: 4096}, 100*time.Microsecond)
	pastEnd := errors.New("sa: vdisk 0 range [0x10000000000,+4096) not provisioned")
	tl.add(&workload.IO{Write: true, LBA: 1 << 40, Size: 4096, Res: sa.Result{Err: pastEnd}}, 5*time.Millisecond)
	tl.add(&workload.IO{LBA: 1 << 40, Size: 4096, Res: sa.Result{Err: errors.New("second")}}, 5*time.Millisecond)

	var stdout, stderr bytes.Buffer
	if code := tl.report(&stdout, &stderr, time.Millisecond); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "iops=1000  bw=4.1 MB/s  completed=1  failed=2\n"; !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout = %q, want %q", stdout.String(), want)
	}
	if want := "max=100µs\n"; !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout = %q, want the failed I/Os out of the latencies (%q)", stdout.String(), want)
	}
	if want := "ebsfio: 2 I/Os failed; first: " + pastEnd.Error() + "\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestDocsNameDefinedFlags: every flag the docs pass to ebsfio is one run
// defines, so a deleted or renamed flag cannot linger in a usage line.
func TestDocsNameDefinedFlags(t *testing.T) {
	var usage bytes.Buffer
	if code := run([]string{"-h"}, &usage, &usage); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+-(\w+)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("-h printed no flags: %q", usage.String())
	}
	// The text after "ebsfio" up to a code span's end, a table cell's end
	// or a shell comment, and the flags in it.
	invocation := regexp.MustCompile("ebsfio([^`|#\n]*)")
	flagArg := regexp.MustCompile(`(?:^|[\s/])-([a-z]+)`)
	named := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range invocation.FindAllStringSubmatch(string(text), -1) {
			for _, m := range flagArg.FindAllStringSubmatch(inv[1], -1) {
				if !defined[m[1]] {
					t.Errorf("%s passes ebsfio -%s, which run does not define", doc, m[1])
				}
				named++
			}
		}
	}
	if named == 0 {
		t.Error("the docs pass ebsfio no flags; the pattern no longer matches their usage lines")
	}
}
