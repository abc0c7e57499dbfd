package obs

import (
	"encoding/json"
	"io"
	"time"
)

// End-of-run summary: a machine-readable JSON snapshot of every registered
// series, complementing the per-frame trace -- the trace answers "what did
// frame N do", the summary answers "where did the run's wall clock and
// work go". cmd/eagleeye writes it behind -metrics-out, and the live
// endpoints of cmd/eagleeye and cmd/eagleeyed serve it on /summary.

// SummarySchema versions the summary layout for downstream consumers.
const SummarySchema = 1

// SummaryBucket is one histogram bucket in a summary (non-cumulative).
// LE is the formatted upper bound ("+Inf" for the overflow bucket),
// because JSON has no infinity literal.
type SummaryBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// SummaryMetric is one series in a summary.
type SummaryMetric struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Type    string            `json:"type"`
	Value   float64           `json:"value,omitempty"`   // counter, gauge
	Count   int64             `json:"count,omitempty"`   // histogram
	Sum     float64           `json:"sum,omitempty"`     // histogram
	Buckets []SummaryBucket   `json:"buckets,omitempty"` // histogram; +Inf last
}

// Summary is the full registry snapshot.
type Summary struct {
	Schema    int             `json:"schema"`
	WrittenAt string          `json:"written_at"`
	Metrics   []SummaryMetric `json:"metrics"`
}

// Summary snapshots the registry, ordered by (family, labels).
func (r *Registry) Summary() Summary {
	s := Summary{Schema: SummarySchema, WrittenAt: time.Now().UTC().Format(time.RFC3339)}
	for _, e := range r.sorted() {
		m := SummaryMetric{Name: e.name, Type: e.kind.String()}
		if len(e.labels) > 0 {
			m.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.c.Value())
		case kindGauge:
			m.Value = e.g.Value()
		case kindHistogram:
			snap := e.h.Snapshot()
			m.Count = snap.Count
			m.Sum = snap.Sum
			m.Buckets = make([]SummaryBucket, 0, len(snap.Counts))
			for i, b := range snap.Bounds {
				m.Buckets = append(m.Buckets, SummaryBucket{LE: formatFloat(b), Count: snap.Counts[i]})
			}
			m.Buckets = append(m.Buckets, SummaryBucket{LE: "+Inf", Count: snap.Counts[len(snap.Bounds)]})
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s
}

// WriteSummary writes the summary as indented JSON.
func (r *Registry) WriteSummary(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Summary())
}
