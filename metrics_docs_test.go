package eagleeye_test

import (
	"bytes"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"eagleeye"
	"eagleeye/internal/server"
)

// TestMetricsDocumented is the docs drift gate, in both directions: every
// metric family a live registry exports must appear in README.md's metrics
// documentation (the table uses unprefixed names like `frames_total`), and
// every family the README's series tables name must be registered. Adding
// a series without documenting it, or deleting one and leaving its row,
// fails here, not in a reviewer's head.
func TestMetricsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)

	reg := eagleeye.NewMetricsRegistry()

	// Register the simulator families: an instrumented continuous session
	// with a fault event, stepped then checkpointed, touches the sim,
	// solver, warm-start, fault and checkpoint series.
	sess, err := eagleeye.NewSession(eagleeye.Config{
		Dataset:        eagleeye.DatasetShips,
		Satellites:     2,
		DurationHours:  1,
		Continuous:     true,
		RecaptureDedup: true,
		Events: []eagleeye.FaultEvent{
			{AtHours: 0.1, Kind: eagleeye.FaultFollowerFail, Group: 0, Follower: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(eagleeye.StepOptions{Hours: 0.3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Checkpoint(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	// Register the daemon families: a server on the same registry plus one
	// instrumented request.
	srv := server.New(server.Config{Metrics: reg})
	defer srv.Shutdown(0)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions", nil))

	var missing []string
	for _, fam := range reg.Names() {
		short := strings.TrimPrefix(strings.TrimPrefix(fam, "eagleeyed_"), "eagleeye_")
		if !strings.Contains(doc, fam) && !strings.Contains(doc, "`"+short+"`") &&
			!strings.Contains(doc, "`"+short+"{") && !strings.Contains(doc, short+"`") {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		t.Errorf("metric families not documented in README.md:\n  %s", strings.Join(missing, "\n  "))
	}

	registered := make(map[string]bool)
	for _, fam := range reg.Names() {
		registered[fam] = true
	}
	for intro := range seriesTables {
		if !strings.Contains(doc, intro) {
			t.Errorf("README.md: series table introduced by %q not found", intro)
		}
	}
	var stale []string
	for _, fam := range documentedFamilies(doc) {
		if !registered[fam] {
			stale = append(stale, fam)
		}
	}
	if len(stale) > 0 {
		t.Errorf("README.md documents metric families nothing registers:\n  %s", strings.Join(stale, "\n  "))
	}
}

// seriesTables maps each README line that introduces a series table to
// the prefix its unprefixed names take.
var seriesTables = map[string]string{
	"Exported series (all prefixed `eagleeye_`):": "eagleeye_",
	"server series are prefixed `eagleeyed_`:":    "eagleeyed_",
}

var backticked = regexp.MustCompile("`([^`]+)`")

// documentedFamilies returns the prefixed family names in the first column
// of README's series tables. Label sets (`{solver=…}`) are stripped, and a
// backticked span that is only a label set names no family.
func documentedFamilies(doc string) []string {
	var out []string
	prefix, inTable := "", false
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if p, ok := seriesTables[line]; ok {
			prefix = p
			continue
		}
		if prefix == "" {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				prefix, inTable = "", false
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "/"), "|")
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			name, _, _ := strings.Cut(m[1], "{")
			if name != "" {
				out = append(out, prefix+name)
			}
		}
	}
	return out
}
