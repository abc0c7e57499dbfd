// Package obs is the simulator's observability layer: a named registry of
// atomic counters, gauges and fixed-bucket histograms, Prometheus
// text-format exposition, an optional HTTP introspection endpoint
// (/metrics plus expvar and pprof), and an end-of-run summary JSON.
//
// The package is dependency-free (standard library only) so every other
// internal package -- including the LP/MIP solver stack -- can feed it
// without import cycles. The frame loop must not pay for metrics it does
// not emit: handles (*Counter etc.) are resolved from the registry once at
// simulation start, so an update is a single atomic add with no map
// lookups and no allocation. When metrics are disabled the simulator holds
// no handles at all and the loop is byte-identical to the uninstrumented
// one.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric. Metrics with the same
// name but different labels are distinct series of one family, exactly as
// in the Prometheus data model.
type Label struct {
	Key, Value string
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metricEntry is one registered series.
type metricEntry struct {
	name   string
	help   string
	labels []Label // sorted by key
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; registration is get-or-create, so independent components
// may ask for the same series and share it.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metricEntry
	order []*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metricEntry)}
}

// seriesKey builds the map key for a name + sorted label set.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register returns the entry for (name, labels), creating it with mk on
// first use. It panics on invalid names or on a kind conflict -- both are
// programmer errors, caught by the first test that touches the series.
func (r *Registry) register(name, help string, labels []Label, kind metricKind, mk func(*metricEntry)) *metricEntry {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for _, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Key, name))
		}
	}
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	e := &metricEntry{name: name, help: help, labels: ls, kind: kind}
	mk(e)
	r.byKey[key] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns (creating on first use) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.register(name, help, labels, kindCounter, func(e *metricEntry) {
		e.c = &Counter{}
	})
	return e.c
}

// Gauge returns (creating on first use) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.register(name, help, labels, kindGauge, func(e *metricEntry) {
		e.g = &Gauge{}
	})
	return e.g
}

// Histogram returns (creating on first use) the histogram series
// name{labels} with the given upper-bound buckets (ascending; an implicit
// +Inf bucket is appended). Buckets are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	e := r.register(name, help, labels, kindHistogram, func(e *metricEntry) {
		e.h = newHistogram(buckets)
	})
	return e.h
}

// CounterValue reads the current total of a counter series, or 0 when the
// series does not exist. It is a convenience for tests and exporters; hot
// paths hold the *Counter handle instead.
func (r *Registry) CounterValue(name string, labels ...Label) int64 {
	if e := r.lookup(name, labels); e != nil && e.kind == kindCounter {
		return e.c.Value()
	}
	return 0
}

// GaugeValue reads the current value of a gauge series, or 0 when missing.
func (r *Registry) GaugeValue(name string, labels ...Label) float64 {
	if e := r.lookup(name, labels); e != nil && e.kind == kindGauge {
		return e.g.Value()
	}
	return 0
}

// Names returns the distinct metric family names registered so far,
// sorted. The docs drift gate uses it to require that every live series
// family is documented.
func (r *Registry) Names() []string {
	r.mu.Lock()
	seen := make(map[string]bool, len(r.order))
	out := make([]string, 0, len(r.order))
	for _, e := range r.order {
		if !seen[e.name] {
			seen[e.name] = true
			out = append(out, e.name)
		}
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

func (r *Registry) lookup(name string, labels []Label) *metricEntry {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byKey[seriesKey(name, ls)]
}

// sorted returns the entries ordered by (family, label key) so exposition
// and summaries are stable regardless of registration interleaving.
func (r *Registry) sorted() []*metricEntry {
	r.mu.Lock()
	out := append([]*metricEntry(nil), r.order...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return seriesKey("", out[i].labels) < seriesKey("", out[j].labels)
	})
	return out
}

// ---- Counter ----

// Counter is a monotonic counter: one atomic integer.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the counter's total.
func (c *Counter) Value() int64 { return c.v.Load() }

// ---- Gauge ----

// Gauge is a float64 gauge, set from setup/teardown paths or at coarse
// intervals, never per event.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger (monotone progress gauges).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
