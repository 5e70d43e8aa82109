// Package fluiddata exercises determinism's floateq rule and maporder's
// mapfloat rule together: float-rate math in the flow-level model must be
// order-independent, so float equality and map-range float accumulation
// are diagnostics, while the epsilon-band and sorted-keys idioms stay
// silent.
package fluiddata

import "sort"

const eps = 1e-9

// admitEq decides admission on exact float equality — order-dependent
// the moment pace is a sum.
func admitEq(rates map[int]float64, pace float64) bool {
	for _, r := range rates {
		if r == pace { // want `float equality \(==\) in fluid code`
			return true
		}
	}
	return false
}

// eventTimeNeq compares computed event times exactly.
func eventTimeNeq(a, b float64) bool {
	return a != b // want `float equality \(!=\) in fluid code`
}

// foldRates accumulates float rates in map order: both the op-assign and
// the plain rebinding form.
func foldRates(rates map[int]float64) (float64, float64) {
	var sum, total float64
	for _, r := range rates {
		sum += r // want `floating-point accumulation into sum depends on map iteration order`
	}
	for _, r := range rates {
		total = total + r // want `floating-point accumulation into total depends on map iteration order`
	}
	return sum, total
}

// foldSorted is the sanctioned idiom: collect keys, sort, then fold in
// deterministic order.
func foldSorted(rates map[int]float64) float64 {
	keys := make([]int, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += rates[k]
	}
	return sum
}

// epsilonBand is the repo's comparison idiom: a tolerance band instead of
// exact equality.
func epsilonBand(alloc, pace float64) bool {
	return alloc >= pace*(1-eps)
}

// intFold is silent: integer accumulation commutes, so map order cannot
// change the result.
func intFold(counts map[int]int) int {
	var n int
	for _, c := range counts {
		n += c
	}
	return n
}

// perIterLocal is silent: a float declared inside the loop body is
// per-iteration and carries nothing across the random order.
func perIterLocal(rates map[int]float64) int {
	n := 0
	for _, r := range rates {
		scaled := r * 2
		scaled += 1
		if scaled > 3 {
			n++
		}
	}
	return n
}
