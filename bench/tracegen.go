package main

import (
	"bufio"
	"io"
	"math/rand"
	"strconv"

	"repro/internal/tracein"
)

// The trace-replay workload replays a trace this file generates from
// the benchmark seed, in SNIA MSR-Cambridge CSV form (the format real
// traces arrive in, so abrsim's parse and scale path is exercised too).
// The shape is fixed here; only the draws depend on the seed, and every
// quantity is a mean over tens of thousands of independent draws, so two
// seeds give different traces of the same weight.
const (
	// traceRecords is sized for about 5 s of host time per replay
	// mode (off, learn and on passes) on the 2-core reference box.
	traceRecords = 100_000
	// traceBlocks is the source address space: one Toshiba member's
	// worth of 8 KB blocks, so the four address-shifted copies of
	// -trace-scale 4 tile the 4-disk stripe without overlapping.
	traceBlocks    = 16_000
	traceReadShare = 0.7
	// Arrivals are bursty: bursts of traceBurstLen requests on average,
	// traceBurstGapMS apart, separated by idle gaps of traceIdleMS on
	// average — about 3.5 requests per simulated second. At 4x open loop
	// each stripe member sees four times that, 60-80 % of what it can
	// serve: queues build inside a burst and drain in the gap, so the
	// backlog never grows without bound.
	traceBurstLen   = 40
	traceBurstGapMS = 120.0
	traceIdleMS     = 6500.0
	// traceZipfS and traceZipfV shape the block popularity (rank r is
	// drawn with weight (traceZipfV+r)^-traceZipfS).
	traceZipfS = 1.2
	traceZipfV = 8

	traceBlockBytes = 8192
	// traceEpochTicks is the FILETIME (100 ns ticks since 1601) of the
	// first record: 2007-02-22, the week the MSR traces were taken.
	traceEpochTicks    = 128_166_372_000_000_000
	filetimeTicksPerMS = 10_000
)

// traceScale is what abrsim's -trace-scale 4 does to the trace: four
// address-shifted copies at four times the pace. The set-up probe and the
// tracein.scale layer driver apply the same scale in process.
var traceScale = tracein.Scale{Compress: 4, Copies: 4, ShiftBlocks: traceBlocks / 4, WrapBlocks: traceBlocks}

// writeTrace writes records seeded MSR-format lines to w:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// The same seed and record count always give the same bytes.
func writeTrace(w io.Writer, seed int64, records int) error {
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, traceZipfS, traceZipfV, traceBlocks-1)
	// Popularity rank -> block: a seeded permutation scatters the hot
	// blocks over the whole disk, which is what gives rearrangement
	// seeks to save.
	perm := rnd.Perm(traceBlocks)

	bw := bufio.NewWriter(w)
	var line []byte
	nowMS := 0.0
	left := 0 // requests left in the current burst
	for i := 0; i < records; i++ {
		if i > 0 {
			if left == 0 {
				nowMS += rnd.ExpFloat64() * traceIdleMS
			} else {
				nowMS += rnd.ExpFloat64() * traceBurstGapMS
			}
		}
		if left == 0 {
			left = 1 + int(rnd.ExpFloat64()*traceBurstLen)
		}
		left--
		typ := "Read"
		if rnd.Float64() >= traceReadShare {
			typ = "Write"
		}
		block := int64(perm[zipf.Uint64()])

		line = line[:0]
		line = strconv.AppendInt(line, traceEpochTicks+int64(nowMS*filetimeTicksPerMS), 10)
		line = append(line, ",bench,0,"...)
		line = append(line, typ...)
		line = append(line, ',')
		line = strconv.AppendInt(line, block*traceBlockBytes, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, traceBlockBytes, 10)
		line = append(line, ",0\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
