// Package maporder exercises the map-iteration-order analyzer.
package maporder

import (
	"fmt"
	"sort"

	"lintdata/sim"
	"lintdata/stats"
)

func schedules(e *sim.Engine, m map[int]int64) {
	for _, d := range m {
		e.Schedule(d, nil) // want `sim\.Engine\.Schedule inside range over a map`
	}
}

// Absolute-time and resource forms enqueue events just the same.
func enqueues(e *sim.Engine, s *sim.Server, m map[int]int64) {
	for at, d := range m {
		e.AtArg(int64(at), nil, nil) // want `sim\.Engine\.AtArg inside range over a map`
		s.SubmitArg(d, nil, nil)     // want `sim\.Server\.SubmitArg inside range over a map`
	}
}

func prints(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `fmt\.Println inside range over a map`
	}
}

func records(h *stats.Histogram, m map[int]int64) {
	for _, v := range m {
		h.Record(v) // want `stats\.Histogram\.Record inside range over a map`
	}
}

func appendsUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over a map`
	}
	return keys
}

// The canonical fix: collect keys, sort, iterate the slice.
func appendsSorted(e *sim.Engine, m map[string]int64) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Schedule(m[k], nil)
	}
}

func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into sum`
	}
	return sum
}

// The rebinding form is the same accumulation.
func floatRebind(m map[string]float64) float64 {
	var sum float64
	for _, r := range m {
		sum = sum + r // want `floating-point accumulation into sum`
	}
	return sum
}

// Integer addition commutes: summing counters from a map is fine.
func intSum(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// Slices iterate in index order; sinks inside are fine.
func sliceRange(e *sim.Engine, ds []int64) {
	for _, d := range ds {
		e.Schedule(d, nil)
	}
}

// A justified allow keeps a genuinely order-insensitive site quiet.
func suppressed(m map[string]int) {
	for k, v := range m {
		//lint:allow maporder — diagnostic output only, never parsed or diffed
		fmt.Println(k, v)
	}
}
