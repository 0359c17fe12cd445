package hotlist

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// total sums the counts of e's distribution: every observation.
func total(e *Exact) (n int64) {
	for _, bc := range e.Distribution() {
		n += bc.Count
	}
	return n
}

func TestExactCounts(t *testing.T) {
	e := NewExact()
	for i := 0; i < 5; i++ {
		e.Observe(100)
	}
	e.Observe(200)
	if e.Count(100) != 5 || e.Count(200) != 1 {
		t.Errorf("counts = %d, %d", e.Count(100), e.Count(200))
	}
	if e.Len() != 2 || total(e) != 6 {
		t.Errorf("Len=%d total=%d", e.Len(), total(e))
	}
}

func TestExactTopOrder(t *testing.T) {
	e := NewExact()
	obs := map[int64]int{10: 3, 20: 7, 30: 5, 40: 7}
	for b, n := range obs {
		for i := 0; i < n; i++ {
			e.Observe(b)
		}
	}
	top := e.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) = %d entries", len(top))
	}
	// 20 and 40 tie at 7; lower block number first.
	if top[0].Block != 20 || top[1].Block != 40 || top[2].Block != 30 {
		t.Errorf("Top = %+v", top)
	}
}

func TestExactTopMoreThanLen(t *testing.T) {
	e := NewExact()
	e.Observe(1)
	if got := e.Top(10); len(got) != 1 {
		t.Errorf("Top(10) = %d entries", len(got))
	}
}

func TestExactReset(t *testing.T) {
	e := NewExact()
	e.Observe(1)
	e.Reset()
	if e.Len() != 0 || total(e) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestDistributionCoversAll(t *testing.T) {
	e := NewExact()
	for i := int64(0); i < 100; i++ {
		e.Observe(i % 10)
	}
	d := e.Distribution()
	if len(d) != 10 {
		t.Errorf("distribution has %d entries", len(d))
	}
	var sum int64
	for _, bc := range d {
		sum += bc.Count
	}
	if sum != 100 {
		t.Errorf("distribution sums to %d", sum)
	}
}

func TestBoundedStaysBounded(t *testing.T) {
	b := NewBounded(10)
	for i := int64(0); i < 1000; i++ {
		b.Observe(i)
	}
	if b.Len() > 10 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.Replacements() == 0 {
		t.Error("no replacements on overflow")
	}
}

func TestBoundedNoReplacementWhenRoomy(t *testing.T) {
	b := NewBounded(100)
	for i := int64(0); i < 50; i++ {
		b.Observe(i)
		b.Observe(i)
	}
	if b.Replacements() != 0 {
		t.Errorf("replacements = %d with spare capacity", b.Replacements())
	}
	if b.Len() != 50 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestBoundedFindsHotBlocksInSkewedStream(t *testing.T) {
	// A bounded list far smaller than the block population must still
	// identify the hottest blocks of a skewed stream — the property the
	// analyzer relies on (Section 4.2).
	r := sim.NewRand(42)
	z := sim.NewZipf(10000, 1.3)
	exact := NewExact()
	bounded := NewBounded(500)
	for i := 0; i < 200000; i++ {
		blk := int64(z.Rank(r))
		exact.Observe(blk)
		bounded.Observe(blk)
	}
	if got := overlap(exact.Top(100), bounded.Top(100)); got < 0.9 {
		t.Errorf("bounded counter found %.0f%% of true top-100, want >= 90%%", got*100)
	}
}

func TestBoundedFindsHotSetUnderChurn(t *testing.T) {
	// Even with heavy replacement churn (50k distinct blocks through a
	// 200-entry list), the counter must keep most of the true top-50.
	r := sim.NewRand(7)
	z := sim.NewZipf(50000, 1.1)
	exact := NewExact()
	b := NewBounded(200)
	for i := 0; i < 300000; i++ {
		blk := int64(z.Rank(r))
		exact.Observe(blk)
		b.Observe(blk)
	}
	if got := overlap(exact.Top(50), b.Top(50)); got < 0.7 {
		t.Errorf("overlap = %.2f, want >= 0.7", got)
	}
}

func TestReplaceMinAdaptsToShift(t *testing.T) {
	// When the hot set shifts, replace-min lets the new hot blocks climb
	// onto a full list (newcomers inherit min+1).
	r := sim.NewRand(9)
	b := NewBounded(100)
	// Phase 1: blocks 0..99 hot.
	for i := 0; i < 20000; i++ {
		b.Observe(int64(r.Intn(100)))
	}
	// Phase 2: blocks 1000..1019 become the hottest.
	for i := 0; i < 40000; i++ {
		if r.Bool(0.8) {
			b.Observe(int64(1000 + r.Intn(20)))
		} else {
			b.Observe(int64(r.Intn(100)))
		}
	}
	top := b.Top(20)
	var newHot int
	for _, bc := range top {
		if bc.Block >= 1000 {
			newHot++
		}
	}
	if newHot < 15 {
		t.Errorf("only %d of top-20 are from the shifted hot set", newHot)
	}
}

func TestBoundedCapacityFloor(t *testing.T) {
	b := NewBounded(0)
	b.Observe(1)
	b.Observe(2)
	if b.Len() != 1 {
		t.Errorf("zero-capacity counter holds %d", b.Len())
	}
}

// overlap returns the fraction of blocks in want that also appear in
// got, comparing only block identities: the accuracy of a bounded
// counter against exact counts.
func overlap(want, got []BlockCount) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int64]bool, len(got))
	for _, g := range got {
		set[g.Block] = true
	}
	var hit int
	for _, w := range want {
		if set[w.Block] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestOverlap(t *testing.T) {
	a := []BlockCount{{Block: 1}, {Block: 2}, {Block: 3}, {Block: 4}}
	b := []BlockCount{{Block: 2}, {Block: 4}, {Block: 9}}
	if got := overlap(a, b); got != 0.5 {
		t.Errorf("overlap = %v, want 0.5", got)
	}
	if got := overlap(nil, b); got != 1 {
		t.Errorf("overlap(empty) = %v, want 1", got)
	}
}

func TestTopNeverExceedsK(t *testing.T) {
	f := func(blocks []uint8, k uint8) bool {
		e := NewExact()
		b := NewBounded(16)
		for _, blk := range blocks {
			e.Observe(int64(blk))
			b.Observe(int64(blk))
		}
		kk := int(k%32) + 1
		return len(e.Top(kk)) <= kk && len(b.Top(kk)) <= kk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopSortedProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		e := NewExact()
		for _, blk := range blocks {
			e.Observe(int64(blk))
		}
		top := e.Top(len(blocks))
		for i := 1; i < len(top); i++ {
			if top[i].Count > top[i-1].Count {
				return false
			}
			if top[i].Count == top[i-1].Count && top[i].Block < top[i-1].Block {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundedReset(t *testing.T) {
	b := NewBounded(10)
	for i := int64(0); i < 100; i++ {
		b.Observe(i)
	}
	b.Reset()
	if b.Len() != 0 || b.Replacements() != 0 {
		t.Errorf("Reset left Len=%d Replacements=%d", b.Len(), b.Replacements())
	}
	// The list must keep counting normally after a reset.
	b.Observe(7)
	b.Observe(7)
	top := b.Top(1)
	if len(top) != 1 || top[0].Block != 7 || top[0].Count != 2 {
		t.Errorf("post-reset Top = %v", top)
	}
}

// A counter reset and fed a stream reports exactly what a fresh counter
// fed the same stream does: Reset keeps the map's buckets, not its
// counts.
func TestResetThenObserveMatchesFresh(t *testing.T) {
	rnd := sim.NewRand(11)
	stream := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rnd.Intn(300))
		}
		return out
	}
	first, second := stream(5000), stream(4000)
	for _, mk := range []struct {
		name string
		new  func() Counter
	}{
		{"exact", func() Counter { return NewExact() }},
		{"bounded", func() Counter { return NewBounded(64) }},
	} {
		reused, fresh := mk.new(), mk.new()
		for _, b := range first {
			reused.Observe(b)
		}
		reused.Reset()
		for _, b := range second {
			reused.Observe(b)
			fresh.Observe(b)
		}
		if got, want := reused.Top(reused.Len()), fresh.Top(fresh.Len()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Top after Reset differs from a fresh counter's", mk.name)
		}
		if e, ok := reused.(*Exact); ok {
			if got, want := e.Distribution(), fresh.(*Exact).Distribution(); !reflect.DeepEqual(got, want) {
				t.Errorf("exact: Distribution after Reset differs from a fresh counter's")
			}
		}
	}
}

// sortCounts gives the order a sort.Slice on (count desc, block asc)
// gives, on inputs full of count ties.
func TestSortCountsMatchesSortSlice(t *testing.T) {
	rnd := sim.NewRand(5)
	for trial := 0; trial < 200; trial++ {
		n := rnd.Intn(400)
		xs := make([]BlockCount, n)
		for i := range xs { // distinct blocks, as a counter holds
			xs[i] = BlockCount{Block: int64(i) * 3, Count: int64(rnd.Intn(1 + trial%8))}
		}
		rnd.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		want := slices.Clone(xs)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Count != want[j].Count {
				return want[i].Count > want[j].Count
			}
			return want[i].Block < want[j].Block
		})
		sortCounts(xs)
		if !slices.Equal(xs, want) {
			t.Fatalf("trial %d: sortCounts %v, sort.Slice %v", trial, xs, want)
		}
	}
}
