package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

// shardHistogram builds a deterministic per-shard histogram by running a
// small simulation on a private engine seeded from the shard index.
func shardHistogram(shard int) (*stats.Histogram, *sim.Engine) {
	eng := sim.NewEngine(int64(shard) + 1)
	h := stats.NewHistogram()
	for i := 0; i < 200; i++ {
		eng.Schedule(eng.Rand.Exp(10*time.Microsecond), func() {
			h.Record(eng.Now().Duration())
		})
	}
	eng.Run()
	return h, eng
}

func TestMapPreservesShardOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := Map(Runner{Workers: workers}, 32, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: shard %d returned %d", workers, i, v)
			}
		}
	}
}

func TestSerialParallelIdenticalMerge(t *testing.T) {
	run := func(workers int) string {
		f := &Fleet{Runner: Runner{Workers: workers}}
		merged := stats.NewRegistry()
		for i, h := range Run(f, 8, shardHistogram) {
			shard := stats.NewRegistry()
			shard.ObserveHistogram("lat", h)
			merged.Merge(shard, fmt.Sprintf("shard%d/", i))
		}
		var b strings.Builder
		if err := merged.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("serial and parallel merges differ:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestFleetPerfAccounting(t *testing.T) {
	f := &Fleet{Runner: Runner{Workers: 2}}
	Run(f, 4, shardHistogram)
	if f.Perf.Shards() != 4 {
		t.Fatalf("shards = %d", f.Perf.Shards())
	}
	if f.Perf.Events() != 4*200 {
		t.Fatalf("events = %d, want 800", f.Perf.Events())
	}
	if f.Perf.simd <= 0 {
		t.Fatal("no simulated time recorded")
	}
	if f.Perf.EventsPerSec() <= 0 || f.Perf.SimMicrosPerWallMs() <= 0 {
		t.Fatal("throughput metrics not positive")
	}
}

func TestEachPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shard panic did not propagate")
		}
	}()
	Runner{Workers: 3}.Each(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestEachZeroShards(t *testing.T) {
	Runner{}.Each(0, func(int) { t.Fatal("job called for n=0") })
}

// TestPerfFailedFoldsShardChecks: a shard whose engine recorded a failed
// check (sim.Engine.Fail) shows in Perf.Failed with its error, which is
// how a read-check mismatch fails an ebsbench run; clean shards read
// (0, nil).
func TestPerfFailedFoldsShardChecks(t *testing.T) {
	errMismatch := errors.New("read returned a superseded block")
	run := func(failShard int) (int, error) {
		f := &Fleet{Runner: Runner{Workers: 2}}
		Run(f, 4, func(shard int) (struct{}, *sim.Engine) {
			_, eng := shardHistogram(shard)
			if shard == failShard {
				eng.Fail(errMismatch)
			}
			return struct{}{}, eng
		})
		return f.Perf.Failed()
	}
	if n, err := run(2); n != 1 || !errors.Is(err, errMismatch) {
		t.Fatalf("one failing shard: Failed() = (%d, %v), want (1, %v)", n, err, errMismatch)
	}
	if n, err := run(-1); n != 0 || err != nil {
		t.Fatalf("clean shards: Failed() = (%d, %v), want (0, nil)", n, err)
	}
}
