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
//
// The scaled trace need not be materialised: Len and At read it as a
// view of the input, record i being copy i mod Copies of input record
// i / Copies, and Apply builds the same records as one slice.
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

// identity reports whether the scale changes no time and no address.
func (s Scale) identity() bool {
	return (s.Compress <= 0 || s.Compress == 1) && s.Copies <= 1
}

// copies is the number of copies of each input record.
func (s Scale) copies() int {
	return max(s.Copies, 1)
}

// String renders the scale for report rows ("4x@2.0" = 4 copies, 2x
// time compression).
func (s Scale) String() string {
	c := s.Compress
	if c <= 0 {
		c = 1
	}
	return fmt.Sprintf("%dx@%.1f", s.copies(), c)
}

// Len is the number of records in the scaled trace of recs.
func (s Scale) Len(recs []trace.Record) int { return len(recs) * s.copies() }

// At is record i of the scaled trace of recs, 0 <= i < s.Len(recs):
// copy i mod Copies of recs[i/Copies]. It reads recs and allocates
// nothing, so a replay over the view holds the input alone.
func (s Scale) At(recs []trace.Record, i int) trace.Record {
	v := s.view(recs)
	return v.at(i)
}

// Apply produces the scaled trace. The result is deterministic: all
// copies start together and interleave record by record in copy order,
// so the merged stream keeps the input's time order. The input is not
// modified. Record i of the result is s.At(recs, i).
func (s Scale) Apply(recs []trace.Record) []trace.Record {
	v := s.view(recs)
	out := make([]trace.Record, 0, v.len())
	for _, r := range recs {
		r = v.time(r)
		for c := 0; c < v.copies; c++ {
			out = append(out, v.place(r, c))
		}
	}
	return out
}

// view is the scaled trace of recs with the scale's switches resolved
// once, so a reader that walks the whole trace — the replayer, its
// validation, Apply — does not resolve them again for every record.
// The identity scale divides time by 1 and shifts and wraps no address,
// copy 0 included.
type view struct {
	recs        []trace.Record
	copies      int
	compress    float64
	shift, wrap int64
}

func (s Scale) view(recs []trace.Record) view {
	v := view{recs: recs, copies: s.copies(), compress: 1}
	if !s.identity() {
		v.shift, v.wrap = s.ShiftBlocks, s.WrapBlocks
		if !(s.Compress <= 0) {
			v.compress = s.Compress
		}
	}
	return v
}

func (v *view) len() int { return len(v.recs) * v.copies }

func (v *view) at(i int) trace.Record {
	return v.place(v.time(v.recs[i/v.copies]), i%v.copies)
}

// time is input record r at its compressed time.
func (v *view) time(r trace.Record) trace.Record {
	r.TimeMS /= v.compress
	return r
}

// place is timed record r at copy c's address: shifted by c copies and
// wrapped.
func (v *view) place(r trace.Record, c int) trace.Record {
	if v.shift != 0 {
		r.Block += int64(c) * v.shift
		if v.wrap > 0 {
			r.Block %= v.wrap
			if r.Block < 0 {
				r.Block += v.wrap
			}
		}
	}
	return r
}
