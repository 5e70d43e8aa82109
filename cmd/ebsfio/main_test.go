package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/workload"
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
		{[]string{"-bs", "16777217"}, "-bs 16777217"},
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

// replay writes recs as a trace file and runs ebsfio over it.
func replay(t *testing.T, recs []workload.TraceRecord) (code int, stdout, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code = run([]string{"-replay", path, "-read", "0"}, &out, &errOut)
	return code, out.String(), errOut.String()
}

// Failed I/Os are counted apart from completed ones, stay out of IOPS,
// bandwidth and latency, and make the run exit 1.
func TestReplayCountsFailedIOs(t *testing.T) {
	const pastEnd = 1 << 40 // 1 TiB on a 512 MiB disk
	code, stdout, stderr := replay(t, []workload.TraceRecord{
		{At: 0, Write: true, LBA: 0, Size: 4096},
		{At: 10 * time.Microsecond, Write: true, LBA: pastEnd, Size: 4096},
		{At: 20 * time.Microsecond, Write: false, LBA: pastEnd, Size: 4096},
	})
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "completed=1  failed=2") {
		t.Errorf("stdout = %q, want completed=1 failed=2", stdout)
	}
	if !strings.Contains(stderr, "2 I/Os failed") {
		t.Errorf("stderr = %q, want the failure count", stderr)
	}
}

// windowRE captures the replay window and the reported IOPS.
var windowRE = regexp.MustCompile(`window=(\S+)\n\s+iops=(\S+)`)

// The replay window runs to the last completion: a one-record trace has a
// finite rate, and the last I/O's service time is inside the window.
func TestReplayWindowEndsAtLastCompletion(t *testing.T) {
	for _, tc := range []struct {
		name string
		last time.Duration // issue time of the last record
	}{
		{"one record", 0},
		{"two records", time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := []workload.TraceRecord{{At: 0, Write: true, LBA: 0, Size: 4096}}
			if tc.last > 0 {
				recs = append(recs, workload.TraceRecord{At: tc.last, Write: true, LBA: 8192, Size: 4096})
			}
			code, stdout, stderr := replay(t, recs)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			m := windowRE.FindStringSubmatch(stdout)
			if m == nil {
				t.Fatalf("stdout = %q, want a window and an iops figure", stdout)
			}
			window, err := time.ParseDuration(m[1])
			if err != nil {
				t.Fatal(err)
			}
			if window <= tc.last {
				t.Errorf("window %v ends at or before the last issue (%v)", window, tc.last)
			}
			if strings.Contains(m[2], "Inf") {
				t.Errorf("iops=%s", m[2])
			}
		})
	}
}
