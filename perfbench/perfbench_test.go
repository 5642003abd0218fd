package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"fig4-lbm", "mcf-2ch"} {
		if a, b := simulations(w, 7), simulations(w, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different simulation lists", w)
		}
		if a, b := simulations(w, 7), simulations(w, 8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same simulation list", w)
		}
	}
	n := len(serveUniverse())
	for ep := 0; ep < 3; ep++ {
		if a, b := requestSequence(7, ep, n), requestSequence(7, ep, n); !reflect.DeepEqual(a, b) {
			t.Errorf("episode %d: seed 7 gave two different request sequences", ep)
		}
	}
	if reflect.DeepEqual(requestSequence(7, 0, n), requestSequence(8, 0, n)) {
		t.Error("seeds 7 and 8 gave the same request sequence")
	}
	if reflect.DeepEqual(requestSequence(7, 0, n), requestSequence(7, 1, n)) {
		t.Error("two episodes of one run repeat the same request sequence")
	}
}

func TestUntracedPathAttachesNothing(t *testing.T) {
	for _, w := range []string{"fig4-lbm", "mcf-2ch"} {
		for i, o := range simulations(w, 3) {
			if o.Telemetry != nil || o.Stream != nil || o.Streams != nil {
				t.Errorf("%s sim %d: untraced Options carry telemetry or a custom stream", w, i)
			}
			if f := reflect.ValueOf(o).FieldByName("EngineStats"); f.IsValid() && !f.IsZero() {
				t.Errorf("%s sim %d: untraced Options request engine statistics", w, i)
			}
		}
	}
	for i, r := range serveUniverse() {
		if r.StallReport {
			t.Errorf("serve key %d asks for the stall report", i)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit, Better string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if got := declared[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: reported %+v, declared %+v", kind, i, d, got)
			}
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

func TestReportRefusesUndeclaredMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	newReport(false).set("trace.ns_per_access", 1, "")
}

// TestNoEngineKnobsInSource keeps the benchmark independent of the
// verification knobs and the engine-statistics option, so a change that
// deletes them still builds the benchmark.
func TestNoEngineKnobsInSource(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var id string
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id = x.Sel.Name
			case *ast.KeyValueExpr:
				if k, ok := x.Key.(*ast.Ident); ok {
					id = k.Name
				}
			}
			if strings.HasPrefix(id, "Disable") || id == "EngineStats" {
				t.Errorf("%s: refers to %s", fset.Position(n.Pos()), id)
			}
			return true
		})
	}
}

func TestQuantileRank(t *testing.T) {
	var d durations
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	if got := d.quantile(0.5); got != 50 {
		t.Errorf("p50 of 1..100 ms = %v, want 50", got)
	}
	if got := d.quantile(0.9); got != 90 {
		t.Errorf("p90 of 1..100 ms = %v, want 90", got)
	}
	if beyond := len(d) - rank(0.9, len(d)); beyond != 10 {
		t.Errorf("%d samples beyond p90 of 100, want 10", beyond)
	}
}

// TestServeEpisode drives one short episode from both clients at once,
// which is the benchmark's only concurrent code.
func TestServeEpisode(t *testing.T) {
	workDir = t.TempDir()
	universe := serveUniverse()[:3]
	bodies := make([][]byte, len(universe))
	for i, u := range universe {
		u.Instructions = 2000
		universe[i] = u
		b, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	seq := []int{0, 0, 1, 0, 2, 1, 1, 2, 0, 2, 1, 0}
	spans := newSpans()
	e, err := serveEpisode(bodies, seq, spans, 0)
	if err != nil {
		t.Fatal(err)
	}
	tot := &serveTotals{payloads: map[int][]byte{}}
	tiers := map[string]int{}
	for i, r := range e.replies {
		if err := tot.check(r, universe[r.key]); err != nil {
			t.Errorf("reply %d: %v", i, err)
		}
		tiers[r.tier]++
	}
	if tiers["miss"] != len(universe) || tiers["hit"]+tiers["coalesced"] != len(seq)-len(universe) {
		t.Errorf("tiers %v: want one computation per key, hits or joins for the rest", tiers)
	}
	if e.runs != len(universe) || e.setup <= 0 {
		t.Errorf("server reported %d runs and set-up %v", e.runs, e.setup)
	}
	if got := len(spans.spans); got != len(seq) {
		t.Errorf("recorded %d request spans, want %d", got, len(seq))
	}
}
