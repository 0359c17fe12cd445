// Package hotlist implements the reference-counting data structures used
// by the reference stream analyzer (Section 4.2 of "Adaptive Block
// Rearrangement Under UNIX").
//
// The analyzer maintains a list of block-number/reference-count pairs.
// In the worst case an exact list is proportional to the number of
// blocks on the disk, so the paper bounds its size and applies a
// replacement heuristic when a block not on the list is referenced; with
// a list of several thousand entries replacement is rarely necessary,
// and the experiments in [Salem 92, Salem 93] show that much shorter
// lists still produce accurate hot-block guesses. Both the exact counter
// and two bounded variants are provided; the bounded variants are used
// by the hot-list-size ablation benchmark.
package hotlist

import (
	"cmp"
	"slices"
)

// BlockCount is one block-number/reference-count pair.
type BlockCount struct {
	Block int64
	Count int64
}

// Counter accumulates block reference counts and reports the hottest
// blocks.
type Counter interface {
	// Observe records one reference to block.
	Observe(block int64)
	// Top returns up to k blocks ordered by descending estimated count,
	// ties broken by ascending block number.
	Top(k int) []BlockCount
	// Len returns the number of blocks currently tracked.
	Len() int
	// Reset forgets all counts.
	Reset()
}

// Exact counts every block it sees, without bound.
type Exact struct {
	counts map[int64]int64
}

// NewExact returns an unbounded counter.
func NewExact() *Exact {
	return &Exact{counts: make(map[int64]int64)}
}

// Observe implements Counter.
func (e *Exact) Observe(block int64) { e.counts[block]++ }

// Len implements Counter.
func (e *Exact) Len() int { return len(e.counts) }

// Reset implements Counter. The map keeps its buckets, so a counter
// reset every day does not grow them again.
func (e *Exact) Reset() { clear(e.counts) }

// Top implements Counter.
func (e *Exact) Top(k int) []BlockCount {
	all := make([]BlockCount, 0, len(e.counts))
	for b, c := range e.counts {
		all = append(all, BlockCount{Block: b, Count: c})
	}
	sortCounts(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Count returns the exact count for one block.
func (e *Exact) Count(block int64) int64 { return e.counts[block] }

// Distribution returns all counts ordered hottest-first; it is the raw
// material of the paper's block-access-distribution figures (5 and 7).
func (e *Exact) Distribution() []BlockCount { return e.Top(len(e.counts)) }

// Bounded is a fixed-capacity counter. When a new block arrives and the
// list is full, it replaces the minimum-count entry and credits the new
// block with min+1 (the space-saving heuristic): counts become upper
// bounds, and recently-hot blocks displace stale ones quickly.
type Bounded struct {
	capacity int
	counts   map[int64]int64
	replaced int64
}

// NewBounded returns a counter that tracks at most capacity blocks.
func NewBounded(capacity int) *Bounded {
	if capacity <= 0 {
		capacity = 1
	}
	return &Bounded{
		capacity: capacity,
		counts:   make(map[int64]int64, capacity),
	}
}

// Observe implements Counter.
func (b *Bounded) Observe(block int64) {
	if _, ok := b.counts[block]; ok {
		b.counts[block]++
		return
	}
	if len(b.counts) < b.capacity {
		b.counts[block] = 1
		return
	}
	b.replaced++
	// Find the minimum-count entry (ties: highest block number goes, so
	// that behaviour is deterministic).
	var minBlock int64
	minCount := int64(-1)
	for blk, c := range b.counts {
		if minCount == -1 || c < minCount || (c == minCount && blk > minBlock) {
			minBlock, minCount = blk, c
		}
	}
	delete(b.counts, minBlock)
	b.counts[block] = minCount + 1
}

// Len implements Counter.
func (b *Bounded) Len() int { return len(b.counts) }

// Reset implements Counter.
func (b *Bounded) Reset() {
	clear(b.counts)
	b.replaced = 0
}

// Replacements returns how many times the heuristic had to make room —
// the paper sizes the list so that this is rarely non-zero.
func (b *Bounded) Replacements() int64 { return b.replaced }

// Top implements Counter.
func (b *Bounded) Top(k int) []BlockCount {
	all := make([]BlockCount, 0, len(b.counts))
	for blk, c := range b.counts {
		all = append(all, BlockCount{Block: blk, Count: c})
	}
	sortCounts(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// sortCounts orders xs by descending count, ties by ascending block: a
// total order on distinct blocks, so the result does not depend on the
// map order xs was filled in.
func sortCounts(xs []BlockCount) {
	slices.SortFunc(xs, func(a, b BlockCount) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Block, b.Block)
	})
}
