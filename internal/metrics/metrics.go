// Package metrics is the simulator's deterministic metrics core:
// monotonic counters and gauges read from the layers' own state, and
// log-linear bucketed histograms with quantile estimation, organized in
// labeled registries with mergeable snapshots.
//
// The package is built around two contracts the rest of the repository
// already honours:
//
//   - Determinism. Bucket boundaries are exact powers of two split into
//     2^SubBits equal mantissa steps, assembled directly from float64
//     bits (never through a log), so a histogram's state is a pure
//     function of the multiset *and order* of recorded values. Because
//     the simulation replays the same event sequence for any -jobs
//     value, snapshots are byte-identical across worker counts.
//   - Allocation-free recording. Histogram.Record and Counter.Add never
//     allocate: the bucket array is sized at construction. A counter or
//     gauge is a function, read at snapshot time, over state its layer
//     keeps anyway. All allocation happens at registration or snapshot
//     time, off the simulation hot path.
//
// Metrics are single-goroutine by design, like the engines they
// instrument: each metric must be recorded from one goroutine at a
// time. Every harness job owns a private registry.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies a metric's type.
type Kind int

// The three metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Label is one name/value dimension of a metric, rendered into the
// canonical metric name as name{key="value"}.
type Label struct {
	Key, Value string
}

// Name renders the canonical full name of a metric: the base name, and
// if labels are present, {k="v",...} with keys sorted so the same label
// set always produces the same string.
func Name(base string, labels ...Label) string {
	if len(labels) == 0 {
		return base
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value for the name{k="v"} syntax (shared
// with the Prometheus text format).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a count its owner adds to (Registry.Counter). Not safe for
// concurrent use; see the package comment for the single-goroutine
// contract.
type Counter struct{ v int64 }

// Add adds n, which must be non-negative. It never allocates.
func (c *Counter) Add(n int64) { c.v += n }
