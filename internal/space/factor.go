// Package space models TVM-style schedule configuration spaces: knobs
// (axis splits and categorical options), mixed-radix index↔configuration
// mapping over astronomically large spaces, featurization for cost models,
// neighbourhood moves for simulated annealing, and the derived resource
// quantities (threads per block, shared memory, registers) that both the
// GPU simulator and Glimpse's hardware-aware sampling reason about.
package space

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// factorizations enumerates every ordered k-tuple of positive integers
// whose product is n, in lexicographic order. TVM's ConfigSpace defines
// split knobs exactly this way.
func factorizations(n, k int) [][]int {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("space: factorizations(%d, %d)", n, k))
	}
	if k == 1 {
		return [][]int{{n}}
	}
	var out [][]int
	for _, d := range divisors(n) {
		for _, rest := range factorizations(n/d, k-1) {
			tuple := make([]int, 0, k)
			tuple = append(tuple, d)
			tuple = append(tuple, rest...)
			out = append(out, tuple)
		}
	}
	return out
}

// divisors returns the sorted positive divisors of n.
func divisors(n int) []int {
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if other := n / d; other != d {
				out = append(out, other)
			}
		}
	}
	sort.Ints(out)
	return out
}

// splitTable is a split knob's value table. factors holds the ordered
// k-part factorizations of n back to back, k values per tuple. A factor's
// feature is its log2: log2Div holds log2 of each divisor of n, and div
// each factor's index among those divisors, so feature p of tuple i is
// log2Div[div[i*k+p]]. The flat layout and 2-byte indices keep a cached
// table, features included, smaller than one slice per tuple.
type splitTable struct {
	factors []int
	div     []uint16
	log2Div []float64
}

// factorCache memoizes split tables, which repeat heavily across tasks
// (channel counts like 64/128/256/512 recur in every model).
var factorCache sync.Map // map[[2]int]*splitEntry

// splitEntry is one cached table. Its first user builds it inside once,
// so concurrent first users of a key build it once and share the result.
type splitEntry struct {
	once  sync.Once
	table *splitTable
}

func cachedSplitTable(n, k int) *splitTable {
	key := [2]int{n, k}
	v, ok := factorCache.Load(key)
	if !ok {
		v, _ = factorCache.LoadOrStore(key, new(splitEntry))
	}
	e := v.(*splitEntry)
	e.once.Do(func() { e.table = buildSplitTable(n, k) })
	return e.table
}

// buildSplitTable enumerates the k-part factorizations of n into a table.
func buildSplitTable(n, k int) *splitTable {
	divs := divisors(n)
	tuples := factorizations(n, k)
	t := &splitTable{
		factors: make([]int, 0, len(tuples)*k),
		div:     make([]uint16, 0, len(tuples)*k),
		log2Div: make([]float64, len(divs)),
	}
	for i, d := range divs {
		t.log2Div[i] = math.Log2(float64(d))
	}
	for _, tuple := range tuples {
		for _, f := range tuple {
			t.factors = append(t.factors, f)
			t.div = append(t.div, uint16(sort.SearchInts(divs, f)))
		}
	}
	return t
}

// countFactorizations returns the number of ordered k-part factorizations
// of n without materializing them.
func countFactorizations(n, k int) int {
	return len(cachedSplitTable(n, k).factors) / k
}
