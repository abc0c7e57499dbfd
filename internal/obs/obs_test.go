package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same series resolved to different handles")
	}
	c := r.Counter("x_total", "help", Label{Key: "k", Value: "v"})
	if c == a {
		t.Fatal("labelled series aliased the unlabelled one")
	}
	// Label order must not matter.
	d1 := r.Counter("y_total", "", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	d2 := r.Counter("y_total", "", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if d1 != d2 {
		t.Fatal("label order changed series identity")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name accepted")
		}
	}()
	r.Counter("bad name", "")
}

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this is the data-race gate, and the total must be exact
// regardless of interleaving.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	const (
		workers = 16
		perG    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
			c.Add(1)
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(workers*(perG+1)); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hwm", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if g.Value() != 7999 {
		t.Fatalf("SetMax high-water mark = %v, want 7999", g.Value())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", Label{Key: "code", Value: "200"}).Add(3)
	r.Counter("req_total", "requests", Label{Key: "code", Value: "500"}).Add(1)
	r.Gauge("temp", "with \"quotes\" and \\slash").Set(1.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{code="200"} 3`,
		`req_total{code="500"} 1`,
		"# TYPE temp gauge",
		"temp 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per family even with two series.
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Error("family header repeated")
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	h := r.Histogram("h_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	s := r.Summary()
	if s.Schema != SummarySchema {
		t.Fatalf("schema %d", s.Schema)
	}
	byName := map[string]SummaryMetric{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	if byName["c_total"].Value != 7 {
		t.Errorf("counter summary value %v", byName["c_total"].Value)
	}
	hm := byName["h_seconds"]
	if hm.Count != 2 || hm.Sum != 2.5 {
		t.Errorf("histogram summary count=%d sum=%v", hm.Count, hm.Sum)
	}
	if len(hm.Buckets) != 2 || hm.Buckets[1].LE != "+Inf" || hm.Buckets[1].Count != 1 {
		t.Errorf("histogram buckets %+v", hm.Buckets)
	}
}

func TestCounterValueLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "", Label{Key: "s", Value: "x"}).Add(9)
	if v := r.CounterValue("n_total", Label{Key: "s", Value: "x"}); v != 9 {
		t.Fatalf("CounterValue = %d", v)
	}
	if v := r.CounterValue("absent_total"); v != 0 {
		t.Fatalf("missing series = %d, want 0", v)
	}
}
