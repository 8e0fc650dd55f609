package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// 1000 samples leave 10 beyond p99; 999 leave 9.
	if beyond(1000, 0.99) != 10 || beyond(999, 0.99) != 9 || beyond(100, 0.9) != 10 {
		t.Errorf("beyond: %d %d %d", beyond(1000, 0.99), beyond(999, 0.99), beyond(100, 0.9))
	}
	if s := spread([]float64{1, 1, 1, 1}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40},  // overlaps a: 10..40 covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Name: "d", Parent: 1, Start: 12, End: 18},
		{Name: "open", Parent: -1, Start: 5, End: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSimSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("core.trial", "x", -1)
	child := tr.begin("sim.run", "x", root)
	tr.end(child)
	tr.end(root)
	tr.setID(root, "y")
	s := tr.snapshot()
	if s[1].Parent != 0 || s[0].ID != "y" || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

func TestDigestAndInputSeed(t *testing.T) {
	// SHA-256("abc"), first 8 bytes.
	if got := digest([]byte("abc")); got != "ba7816bf8f01cfea" {
		t.Errorf("digest(abc) = %s", got)
	}
	tbl := &experiments.Table{ID: "X", Title: "t", Columns: []string{"a"}}
	tbl.AddRow(1.5)
	d1, err := tableDigest(tbl)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Rows[0][0] = 1.5000001
	d2, err := tableDigest(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("a changed cell kept the table digest")
	}
	for seed, want := range map[uint64]uint64{0: 8, 1: 1, 8: 8, 9: 1, 17: 1, 12: 4} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestExpectationsRecorded(t *testing.T) {
	for s := 1; s <= recordedSeeds; s++ {
		key := strconv.Itoa(s)
		if expected.KernelSteps[key] <= 0 {
			t.Errorf("no kernel steps recorded for input seed %d", s)
		}
		for _, id := range experiments.IDs() {
			if expected.Tables[key][id] == "" {
				t.Errorf("no digest recorded for %s at input seed %d", id, s)
			}
		}
	}
}

func TestSameHostRule(t *testing.T) {
	host := hostStamp{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", OSArch: "linux/amd64", Commit: "a"}
	entry := func(h hostStamp, v float64) ledgerEntry {
		return ledgerEntry{Host: h, Workload: "w", Metrics: map[string]metric{"run_s": {Value: v, Unit: "s"}}}
	}
	var spec boundSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"run_s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	other := host
	other.Commit = "b"
	var out bytes.Buffer
	if n, ok := compareLedgers(&out, []ledgerEntry{entry(host, 1)}, []ledgerEntry{entry(other, 1.05)}, spec); !ok || n != 0 {
		t.Errorf("same host, +5%% within a 10%% bound: regressions %d comparable %v\n%s", n, ok, out.String())
	}
	out.Reset()
	if n, ok := compareLedgers(&out, []ledgerEntry{entry(host, 1)}, []ledgerEntry{entry(other, 1.2)}, spec); !ok || n != 1 {
		t.Errorf("same host, +20%% over a 10%% bound: regressions %d comparable %v\n%s", n, ok, out.String())
	}
	bigger := other
	bigger.NProc = 4
	out.Reset()
	if n, ok := compareLedgers(&out, []ledgerEntry{entry(host, 1)}, []ledgerEntry{entry(bigger, 9)}, spec); ok || n != 0 {
		t.Errorf("different hosts compared: regressions %d comparable %v", n, ok)
	}
	if !strings.Contains(out.String(), "no baseline for this host") {
		t.Errorf("different hosts: %q", out.String())
	}
}

// TestImportsExcludeShardsim pins that the benchmark drives the engine
// only through sim.NewEngine behind the Simulator seams: none of its
// files imports internal/shardsim or names a sharded or flat entry point.
// (internal/jobs and internal/experiments still link shardsim for their
// own Shards options, which the benchmark leaves at their defaults.)
func TestImportsExcludeShardsim(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"RunSharded": true, "ForceFlat": true, "SetShards": true, "Shards": true}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "shardsim") {
				t.Errorf("%s imports %s", name, imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
				t.Errorf("%s: names %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// smokeConfig is a one-second smoke-size run.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 3, seconds: time.Second, smoke: true, dir: t.TempDir()}
}

func TestSmokeTimed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := newReport()
			if err := w.timed(smokeConfig(t), r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d failed: %v", r.failed, r.attempted, r.problems)
			}
			for _, m := range endToEnd {
				if m.name == "peak_rss_mb" {
					continue // set by run, for the whole process
				}
				if v, ok := r.metrics[m.name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value", m.name, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("serve-mixed")
	r := newReport()
	layers, err := tracedRun(w, smokeConfig(t), newTracer(), r)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed: %v", r.failed, r.problems)
	}
	if len(layers) != len(perLayer()) {
		t.Errorf("traced run reported %d metrics, %d listed", len(layers), len(perLayer()))
	}
	if layers["cluster.trials_stolen"] <= 0 || layers["core.trials"] <= 0 {
		t.Errorf("proxy layers missing: stolen %v, trials %v", layers["cluster.trials_stolen"], layers["core.trials"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// every listed workload exists, and the metric names and units agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
	}
	var wantE, gotE, wantL, gotL []string
	for _, m := range endToEnd {
		wantE = append(wantE, m.name+" "+m.unit)
	}
	for _, m := range b.EndToEnd {
		gotE = append(gotE, m.Name+" "+m.Unit)
	}
	for _, name := range perLayer() {
		wantL = append(wantL, name+" "+layerUnit(name))
	}
	for _, m := range b.PerLayer {
		gotL = append(gotL, m.Name+" "+m.Unit)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", gotE, wantE}, {"per_layer", gotL, wantL}} {
		sort.Strings(c.got)
		sort.Strings(c.want)
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("BENCHMARK.json %s:\n got %v\nwant %v", c.what, c.got, c.want)
		}
	}
}

func TestResultLine(t *testing.T) {
	r := newReport()
	r.attempted = 3
	r.set("run_s", 1.25, "s", 2)
	var out bytes.Buffer
	e := ledgerEntry{Workload: "w", Correct: true, Attempted: 3, Metrics: r.metrics}
	printReport(&out, hostStamp{}, workload{name: "w"}, e, r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if len(final) != 4 || final["correct"] == nil || final["attempted"] == nil || final["failed"] == nil || final["metrics"] == nil {
		t.Errorf("final line keys: %s", lines[len(lines)-1])
	}
}
