package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// JobSnapshot pairs one job's metrics with the job's name. A run's
// snapshot file holds one JobSnapshot per experiment job, in job order
// — the same order the trace and CSV exporters use, so the file is
// byte-identical for any -jobs value.
type JobSnapshot struct {
	Job     string       `json:"job"`
	Metrics []MetricSnap `json:"metrics"`
}

// jsonDoc is the on-disk JSON snapshot format.
type jsonDoc struct {
	Schema int           `json:"schema"`
	Jobs   []JobSnapshot `json:"jobs"`
}

// WriteJSON writes the snapshot document. encoding/json renders struct
// fields in declaration order and floats in shortest round-trip form,
// so the output is deterministic.
func WriteJSON(w io.Writer, jobs []JobSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonDoc{Schema: 1, Jobs: jobs})
}

// ReadJSON reads a snapshot document written by WriteJSON.
func ReadJSON(r io.Reader) ([]JobSnapshot, error) {
	var doc jsonDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics: reading snapshot: %w", err)
	}
	if doc.Schema != 1 {
		return nil, fmt.Errorf("metrics: unsupported snapshot schema %d", doc.Schema)
	}
	return doc.Jobs, nil
}

// ExportQuantiles are the quantiles rendered by the Prometheus exporter
// and the abrreport percentile table.
var ExportQuantiles = []struct {
	Label string
	Q     float64
}{
	{"0.5", 0.5},
	{"0.9", 0.9},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Each job's metrics gain a job="..." label; histograms are
// rendered as summaries (quantile samples plus _sum/_count) with a
// companion _max gauge. Samples of one metric family are grouped
// together across jobs, as the format requires.
func WritePrometheus(w io.Writer, jobs []JobSnapshot) error {
	type sample struct {
		job string
		m   MetricSnap
	}
	type family struct {
		kind    string
		samples []sample
	}
	var order []string
	fams := map[string]*family{}
	for _, j := range jobs {
		for _, m := range j.Metrics {
			base := m.Name
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			f := fams[base]
			if f == nil {
				f = &family{kind: m.Kind}
				fams[base] = f
				order = append(order, base)
			}
			f.samples = append(f.samples, sample{j.Job, m})
		}
	}
	var b []byte
	for _, base := range order {
		f := fams[base]
		switch f.kind {
		case "histogram":
			b = append(b, "# TYPE "+base+" summary\n"...)
			for _, s := range f.samples {
				ls := promLabels(s.job, s.m.Name)
				for _, eq := range ExportQuantiles {
					b = append(b, base...)
					b = append(b, '{')
					b = append(b, ls...)
					b = append(b, `,quantile="`+eq.Label+`"} `...)
					b = appendNum(b, s.m.Hist.Quantile(eq.Q))
					b = append(b, '\n')
				}
				b = append(b, base+"_sum{"+ls+"} "...)
				b = appendNum(b, s.m.Hist.Sum)
				b = append(b, '\n')
				b = append(b, base+"_count{"+ls+"} "...)
				b = strconv.AppendInt(b, s.m.Hist.Count, 10)
				b = append(b, '\n')
			}
			b = append(b, "# TYPE "+base+"_max gauge\n"...)
			for _, s := range f.samples {
				b = append(b, base+"_max{"+promLabels(s.job, s.m.Name)+"} "...)
				b = appendNum(b, s.m.Hist.Max)
				b = append(b, '\n')
			}
		default:
			b = append(b, "# TYPE "+base+" "+f.kind+"\n"...)
			for _, s := range f.samples {
				b = append(b, base+"{"+promLabels(s.job, s.m.Name)+"} "...)
				b = appendNum(b, s.m.Value)
				b = append(b, '\n')
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// promLabels renders the label pairs for one sample: the job label
// first, then any labels already embedded in the canonical name.
func promLabels(job, name string) string {
	inner := ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		inner = "," + name[i+1:len(name)-1]
	}
	return `job="` + escapeLabel(job) + `"` + inner
}

// appendNum formats a float in shortest round-trip form (integers print
// without a decimal point).
func appendNum(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
