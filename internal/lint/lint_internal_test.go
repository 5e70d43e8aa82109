package lint

import (
	"go/token"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in            string
		keys          []string
		justification string
	}{
		{" wallclock — bench layer measures wall time", []string{"wallclock"}, "bench layer measures wall time"},
		{" wallclock, select — two keys, one reason", []string{"wallclock", "select"}, "two keys, one reason"},
		{" slabown: colon separator works too", []string{"slabown"}, "colon separator works too"},
		{" hotalloc plain words count as justification", []string{"hotalloc"}, "plain words count as justification"},
		{" maporder -- double-dash separator", []string{"maporder"}, "double-dash separator"},
		{" wallclock", []string{"wallclock"}, ""},
		{" wallclock —", []string{"wallclock"}, ""},
		{" wallclock,select,floateq — no spaces between keys", []string{"wallclock", "select", "floateq"}, "no spaces between keys"},
		{"", nil, ""},
		{" — justification with no key", nil, "justification with no key"},
	}
	for _, c := range cases {
		keys, justification := parseAllow(c.in)
		if justification != c.justification {
			t.Errorf("parseAllow(%q): justification = %q, want %q", c.in, justification, c.justification)
		}
		if len(keys) != len(c.keys) {
			t.Errorf("parseAllow(%q): keys = %v, want %v", c.in, keys, c.keys)
			continue
		}
		for i := range keys {
			if keys[i] != c.keys[i] {
				t.Errorf("parseAllow(%q): keys = %v, want %v", c.in, keys, c.keys)
				break
			}
		}
	}
}

func TestScopeMatch(t *testing.T) {
	cases := []struct {
		path, pat string
		want      bool
	}{
		{"lunasolar/internal/sim", "internal/sim", true},
		{"lunasolar/internal/sim/runtime", "internal/sim", true},
		{"lunasolar/internal/simnet", "internal/sim", false},
		{"lunasolar/internal/simnet", "internal/sim*", true},
		{"lunasolar/internal/sim/runtime", "internal/sim*", true},
		{"lunasolar/internal/core", "internal/core", true},
		{"lunasolar/internal/coreutils", "internal/core", false},
		{"lintdata/internal/sim/determ", "internal/sim*", true},
		{"lintdata/bench", "internal/sim*", false},
		{"lintdata/internal/simnet/fluiddata", "internal/simnet", true},
		{"lunasolar/ebs", "ebs", true},
		{"lunasolar/ebsx", "ebs", false},
		{"lunasolar/internal/sa", "internal", true},
		{"lunasolar/cmd/ebsfio", "internal", false},
	}
	for _, c := range cases {
		if got := scopeMatch(c.path, c.pat); got != c.want {
			t.Errorf("scopeMatch(%q, %q) = %v, want %v", c.path, c.pat, got, c.want)
		}
	}
}

// A directive without a justification must not suppress, and must be
// reported itself. This is unit-tested here because the golden fixtures
// cannot put a want comment on a line that is itself a line comment.
func TestAllowRequiresJustification(t *testing.T) {
	keys, justification := parseAllow(" wallclock")
	if justification != "" {
		t.Fatalf("bare key parsed with justification %q", justification)
	}
	if len(keys) != 1 || keys[0] != "wallclock" {
		t.Fatalf("keys = %v", keys)
	}
}

// covers must bump the matching directive's usage count — what the
// unused-allow finding keys on — and match on analyzer name or category,
// same line or the line above, but never further away.
func TestAllowCoverageAndUsage(t *testing.T) {
	dir := &allowDirective{AllowInfo: AllowInfo{
		File: "a.go", Line: 10, Keys: []string{"wallclock"}, Justification: "test",
	}}
	set := allowSet{dir}

	diag := Diagnostic{Analyzer: "determinism", Category: "wallclock"}
	if !set.covers(token.Position{Filename: "a.go", Line: 10}, diag) {
		t.Errorf("same-line directive did not cover")
	}
	if !set.covers(token.Position{Filename: "a.go", Line: 11}, diag) {
		t.Errorf("line-above directive did not cover")
	}
	if set.covers(token.Position{Filename: "a.go", Line: 12}, diag) {
		t.Errorf("directive two lines up covered")
	}
	if set.covers(token.Position{Filename: "b.go", Line: 10}, diag) {
		t.Errorf("directive in another file covered")
	}
	if set.covers(token.Position{Filename: "a.go", Line: 10}, Diagnostic{Analyzer: "slabown", Category: "slabown"}) {
		t.Errorf("unrelated key covered")
	}
	if dir.Used != 2 {
		t.Errorf("used = %d, want 2", dir.Used)
	}
}
