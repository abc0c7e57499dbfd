package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"eagleeye"
	"eagleeye/internal/obs"
	"eagleeye/internal/server"
)

// ingestInputs are the three kinds of file eeinspect reads, from a real
// run: a flight dump (with a pinned fault event), a /debug/flight
// aggregate of two sessions, and an NDJSON trace.
func ingestInputs(t testing.TB) (dump, aggregate, trace []byte) {
	t.Helper()
	rec := obs.NewFlightRecorder(obs.FlightConfig{Ring: 2, TopK: 2, Pinned: 2})
	rec.SetSession("s1")
	var tr bytes.Buffer
	_, err := eagleeye.Run(eagleeye.Config{
		Dataset: eagleeye.DatasetShips, Satellites: 4, DurationHours: 0.5, Seed: 3,
		Events: []eagleeye.FaultEvent{{AtHours: 0.1, Kind: eagleeye.FaultFollowerFail}},
		Trace:  &tr, Flight: rec, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d := rec.Snapshot()
	d.Session = "s2"
	agg, err := json.Marshal(server.FlightAllResponse{Schema: obs.FlightSchema, Sessions: []obs.FlightDump{rec.Snapshot(), d}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), agg, tr.Bytes()
}

// negativeSpans is a dump whose frame and spans have negative durations.
func negativeSpans(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(obs.FlightDump{
		Schema: obs.FlightSchema, Frames: 1, Anomalies: map[string]uint64{"deadline-miss": 1},
		Pinned: []obs.FlightFrame{{Group: 0, Frame: 3, DurNS: -7, Anomalies: []string{"deadline-miss"}, Spans: []obs.FlightSpan{
			{Kind: "frame", Name: "frame", Parent: -1, DurNS: -7},
			{Kind: "stage", Name: "sched", DurNS: -1 << 62},
			{Kind: "solve", Name: "ilp", Parent: 1, StartNS: -3, DurNS: -2, A: 4, B: -9},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzIngest: every input yields a report or an error, never a panic or a
// hang, and printing an accepted report never panics.
func FuzzIngest(f *testing.F) {
	dump, agg, trace := ingestInputs(f)
	for _, in := range [][]byte{dump, agg, trace} {
		f.Add(in)
		f.Add(in[:len(in)/2])
		f.Add(in[:len(in)-2])
	}
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`{"sessions":[]}`))
	f.Add(negativeSpans(f))
	f.Add([]byte("{\"frame\":1}\n" + strings.Repeat("x", 1<<20+1) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := &report{top: 3, warn: io.Discard}
		if rep.ingest(data) != nil {
			return
		}
		rep.print(io.Discard)
	})
}

// TestIngestKinds pins what the fuzz seeds are: each kind of file is read
// as that kind, and a trace line past the scanner's 1 MiB limit is an
// error rather than a short report.
func TestIngestKinds(t *testing.T) {
	dump, agg, trace := ingestInputs(t)
	ingest := func(data []byte) (*report, string, error) {
		rep := &report{top: 3, warn: io.Discard}
		err := rep.ingest(data)
		var out strings.Builder
		if err == nil {
			rep.print(&out)
		}
		return rep, out.String(), err
	}
	if rep, out, err := ingest(dump); err != nil || len(rep.dumps) != 1 || len(rep.frames) == 0 || rep.pinnedTotal == 0 ||
		!strings.Contains(out, "fault-event") {
		t.Errorf("flight dump: %v, %d dumps, %d frames, %d pinned:\n%s", err, len(rep.dumps), len(rep.frames), rep.pinnedTotal, out)
	}
	if rep, _, err := ingest(agg); err != nil || len(rep.dumps) != 2 {
		t.Errorf("aggregate: %v, %d dumps, want 2", err, len(rep.dumps))
	}
	if rep, _, err := ingest(trace); err != nil || rep.traceLines != bytes.Count(trace, []byte("\n")) || rep.traceLines == 0 {
		t.Errorf("trace: %v, %d lines of %d", err, rep.traceLines, bytes.Count(trace, []byte("\n")))
	}
	if rep, _, err := ingest(negativeSpans(t)); err != nil || len(rep.frames) != 1 {
		t.Errorf("negative durations: %v, %d frames", err, len(rep.frames))
	}
	if _, _, err := ingest([]byte(`{"schema":1}`)); err != nil {
		t.Errorf("bare schema: %v", err)
	}
	if _, _, err := ingest([]byte("{\"frame\":1}\n" + strings.Repeat("x", 1<<20+1))); err == nil {
		t.Error("a 1 MiB trace line was accepted")
	}
}
