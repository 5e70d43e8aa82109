package experiments

import "testing"

// TestDiurnalCampaignShape pins the quick campaign's phase outcomes at seed 1:
// every phase but the spike completes every transfer it started (the
// incast wave queues but never drops), the spike wave loses the
// transfers that hash through the hung spine, and the drained run holds
// no pooled packet.
func TestDiurnalCampaignShape(t *testing.T) {
	res := diurnalCampaign(Options{Seed: 1, Quick: true, Workers: 1})
	if l := res.Perf.Leaked(); l != 0 {
		t.Fatalf("campaign leaked %d pooled packets", l)
	}
	want := map[string]int{"ramp": 18, "plateau": 160, "incast": 6, "rampdown": 12}
	for _, p := range res.Phases {
		if p.Name == "spike" {
			if p.Completed >= p.Started {
				t.Errorf("spike completed %d of %d transfers; the spine reboot must lose some", p.Completed, p.Started)
			}
			continue
		}
		if p.Started != want[p.Name] || p.Completed != p.Started {
			t.Errorf("phase %q: %d/%d started/completed, want %d/%d", p.Name, p.Started, p.Completed, want[p.Name], want[p.Name])
		}
	}
	if res.Drops == 0 {
		t.Error("campaign dropped nothing; the spine reboot must hang-drop the spike wave")
	}
}

// TestDiurnalSeedSensitivity guards against a campaign whose output is
// pinned regardless of scenario: seeds 1 and 2 must differ.
func TestDiurnalSeedSensitivity(t *testing.T) {
	a := diurnalCampaign(Options{Seed: 1, Quick: true, Workers: 1})
	b := diurnalCampaign(Options{Seed: 2, Quick: true, Workers: 1})
	if a.Overall.P50us == b.Overall.P50us && a.Overall.P99us == b.Overall.P99us && a.MBps == b.MBps {
		t.Fatal("seeds 1 and 2 produced identical campaigns; the schedule is not seeded")
	}
}
