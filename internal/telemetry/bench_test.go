package telemetry_test

import (
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// The overhead benchmarks run the same one-day system-fs experiment
// with telemetry fully off (nil sink in the driver) and fully on
// (spans + hourly sampling), so
//
//	go test ./internal/telemetry -bench Execute -benchtime 3x
//
// compares the two directly. The disabled path is the default for every
// harness run, and the acceptance bar is that enabling spans costs only
// the encoding of its own output.
func benchExecute(b *testing.B, opts *telemetry.Options) {
	s := experiment.Experiment{
		Rearrange: &experiment.Rearrange{},
		Days:      1, WindowMS: 5 * 60 * 1000,
	}
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		var col *telemetry.Collector
		if opts != nil {
			col = telemetry.NewCollector("bench", *opts)
			ctx = telemetry.NewContext(ctx, col)
		}
		run, err := experiment.Execute(ctx, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(run.Days) != 1 {
			b.Fatalf("got %d days", len(run.Days))
		}
		if opts == nil {
			continue
		}
		// The enabled run must actually have captured telemetry —
		// otherwise the benchmark compares nothing.
		if opts.Spans && len(col.TraceJSONL()) == 0 {
			b.Fatal("no spans captured")
		}
		if opts.SamplePeriodMS > 0 && col.Samples() == 0 {
			b.Fatal("no samples captured")
		}
	}
}

func BenchmarkExecuteTelemetryOff(b *testing.B) {
	benchExecute(b, nil)
}

func BenchmarkExecuteTelemetryOn(b *testing.B) {
	benchExecute(b, &telemetry.Options{Spans: true, SamplePeriodMS: 60 * 1000})
}

func BenchmarkAppendJSONLSpan(b *testing.B) {
	e := &telemetry.Event{
		Kind: telemetry.KindSpan, Write: true, Orig: 146704, Sector: 16,
		Count: 16, QueueDepth: 2, SeekDist: 120, ArriveMS: 100.5,
		DispatchMS: 101.25, SeekMS: 7.5, RotMS: 8.3, TransferMS: 1.9,
		CompleteMS: 118.95,
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = telemetry.AppendJSONL(buf[:0], e)
	}
}
