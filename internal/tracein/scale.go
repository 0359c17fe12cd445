package tracein

import (
	"fmt"

	"repro/internal/trace"
)

// Scale turns one captured trace into a heavier one: Compress divides
// every timestamp (2 = the same requests in half the wall time) and
// Copies multiplexes N address-shifted replicas of the stream, emulating
// N clients with similar but non-overlapping working sets hammering the
// same device. The zero value is the identity scale.
type Scale struct {
	// Compress divides every timestamp; values <= 0 or 1 leave time
	// unchanged.
	Compress float64
	// Copies is the number of multiplexed copies of the trace; values
	// <= 1 mean the single original stream.
	Copies int
	// ShiftBlocks offsets copy i's block addresses by i*ShiftBlocks,
	// so the copies cover disjoint regions instead of magnifying the
	// original hot set in place. Zero keeps all copies at the original
	// addresses (pure intensity scaling).
	ShiftBlocks int64
	// WrapBlocks, when > 0, wraps shifted addresses modulo WrapBlocks
	// so every copy stays inside the target partition. Set it to the
	// partition's block count.
	WrapBlocks int64
}

// identity reports whether the scale changes nothing.
func (s Scale) identity() bool {
	return (s.Compress <= 0 || s.Compress == 1) && s.Copies <= 1
}

// String renders the scale for report rows ("4x@2.0" = 4 copies, 2x
// time compression).
func (s Scale) String() string {
	c := s.Compress
	if c <= 0 {
		c = 1
	}
	n := s.Copies
	if n < 1 {
		n = 1
	}
	return fmt.Sprintf("%dx@%.1f", n, c)
}

// Apply produces the scaled trace. The result is deterministic: all
// copies start together and interleave record by record in copy order,
// so the merged stream keeps the input's time order. The input is not
// modified.
func (s Scale) Apply(recs []trace.Record) []trace.Record {
	if s.identity() && len(recs) > 0 {
		out := make([]trace.Record, len(recs))
		copy(out, recs)
		return out
	}
	compress := s.Compress
	if compress <= 0 {
		compress = 1
	}
	copies := s.Copies
	if copies < 1 {
		copies = 1
	}
	out := make([]trace.Record, 0, len(recs)*copies)
	for _, r := range recs {
		t := r.TimeMS / compress
		for c := 0; c < copies; c++ {
			rc := r
			rc.TimeMS = t
			if s.ShiftBlocks != 0 {
				rc.Block += int64(c) * s.ShiftBlocks
				if s.WrapBlocks > 0 {
					rc.Block %= s.WrapBlocks
					if rc.Block < 0 {
						rc.Block += s.WrapBlocks
					}
				}
			}
			out = append(out, rc)
		}
	}
	return out
}
