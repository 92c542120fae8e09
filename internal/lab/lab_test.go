package lab

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(`{
		"name": "test", "seed": 11, "t": 40, "requests": 2,
		"workloads": [{"generator": "hotspot"}, {"generator": "uniform"}],
		"shards": [2], "k": [2],
		"rebalance": ["static", "threshold"],
		"rebalance_window": 10
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecExpansion(t *testing.T) {
	spec := testSpec(t)
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	want := []string{
		"hotspot_s2_k2_static_strict",
		"hotspot_s2_k2_threshold_strict",
		"uniform_s2_k2_static_strict",
		"uniform_s2_k2_threshold_strict",
	}
	for i, c := range cells {
		if c.Name != want[i] {
			t.Errorf("cell %d: got %q, want %q", i, c.Name, want[i])
		}
	}
}

func TestSpecRejectsBadMatrices(t *testing.T) {
	cases := map[string]string{
		"no workloads":        `{"shards": [2], "k": [2]}`,
		"two sources":         `{"workloads": [{"generator": "uniform", "adversary": "theorem1"}]}`,
		"threshold unsharded": `{"workloads": [{"generator": "uniform"}], "shards": [1], "k": [2], "rebalance": ["threshold"]}`,
		"threshold k=1":       `{"workloads": [{"generator": "uniform"}], "shards": [2], "k": [1], "rebalance": ["threshold"]}`,
		"unknown policy":      `{"workloads": [{"generator": "uniform"}], "rebalance": ["magic"]}`,
		"window without live": `{"workloads": [{"generator": "uniform"}], "window": [4]}`,
		"unknown field":       `{"workloads": [{"generator": "uniform"}], "sharrds": [2]}`,
		"duplicate axis":      `{"workloads": [{"generator": "uniform"}], "shards": [2, 2], "k": [2]}`,
	}
	for name, js := range cases {
		if _, err := ParseSpec([]byte(js)); err == nil {
			t.Errorf("%s: spec accepted, want error", name)
		}
	}
}

func runSweep(t *testing.T, spec *Spec, outDir string, parallel int) *wire.LabReport {
	t.Helper()
	r := &Runner{Spec: spec, OutDir: outDir, Parallel: parallel}
	report, err := r.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestSweepDeterministic is the determinism contract: two sweeps of the
// same spec and seed — at different parallelism — produce byte-identical
// summary.json files.
func TestSweepDeterministic(t *testing.T) {
	spec := testSpec(t)
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	repA := runSweep(t, spec, dirA, 4)
	repB := runSweep(t, spec, dirB, 1)
	if repA.Ran != 4 || repB.Ran != 4 {
		t.Fatalf("ran %d / %d cells, want 4 each", repA.Ran, repB.Ran)
	}
	for _, sum := range repA.Summaries {
		a, err := os.ReadFile(filepath.Join(dirA, sum.Cell, "summary.json"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, sum.Cell, "summary.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("cell %s: summaries differ across sweeps:\n%s\nvs\n%s", sum.Cell, a, b)
		}
	}
}

// TestSweepResume reruns a sweep over an existing results directory and
// expects every cell to be adopted, not re-executed.
func TestSweepResume(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	first := runSweep(t, spec, dir, 2)
	if first.Ran != 4 || first.Skipped != 0 {
		t.Fatalf("first sweep: ran %d, skipped %d", first.Ran, first.Skipped)
	}
	second := runSweep(t, spec, dir, 2)
	if second.Ran != 0 || second.Skipped != 4 {
		t.Fatalf("second sweep: ran %d, skipped %d, want 0/4", second.Ran, second.Skipped)
	}
	// A rerun forces execution again.
	r := &Runner{Spec: spec, OutDir: dir, Parallel: 2, Rerun: true}
	third, err := r.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Ran != 4 {
		t.Fatalf("rerun sweep: ran %d, want 4", third.Ran)
	}
}

func TestSweepSummaries(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	report := runSweep(t, spec, dir, 2)
	for _, sum := range report.Summaries {
		if sum.T != spec.T {
			t.Errorf("cell %s: T = %d, want %d", sum.Cell, sum.T, spec.T)
		}
		if sum.Requests != spec.T*spec.Requests {
			t.Errorf("cell %s: requests = %d, want %d", sum.Cell, sum.Requests, spec.T*spec.Requests)
		}
		if sum.Cost.Total <= 0 || sum.CostPerStep <= 0 {
			t.Errorf("cell %s: no cost recorded: %+v", sum.Cell, sum.Cost)
		}
		if sum.Transport != "inproc" {
			t.Errorf("cell %s: transport %q", sum.Cell, sum.Transport)
		}
		if len(sum.FinalKs) != 2 {
			t.Errorf("cell %s: final layout %v, want 2 shards", sum.Cell, sum.FinalKs)
		}
	}
	// The bench entry pairs static and threshold runs of both workloads.
	be := report.Bench
	if be.Cells != 4 || len(be.Workloads) != 2 {
		t.Fatalf("bench entry: %+v", be)
	}
	if be.StaticCostPerStep <= 0 || be.RebalanceCostPerStep <= 0 {
		t.Fatalf("bench entry has no paired averages: %+v", be)
	}
	if len(be.Best) != 2 {
		t.Fatalf("bench entry best list: %+v", be.Best)
	}
	// report.json and bench.json landed next to the summaries.
	for _, f := range []string{"report.json", "bench.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing sweep aggregate %s: %v", f, err)
		}
	}
}

func TestBenchEntryPairsOnlyMatchedCells(t *testing.T) {
	sums := []wire.LabCellSummary{
		{Cell: "a", Workload: "w", Shards: 2, K: 2, CapMode: "strict", Transport: "inproc", Rebalance: "static", CostPerStep: 10},
		{Cell: "b", Workload: "w", Shards: 2, K: 2, CapMode: "strict", Transport: "inproc", Rebalance: "threshold", CostPerStep: 5},
		// Unpaired: static only at shards=4.
		{Cell: "c", Workload: "w", Shards: 4, K: 2, CapMode: "strict", Transport: "inproc", Rebalance: "static", CostPerStep: 100},
	}
	be := BenchEntry("m", sums)
	if be.StaticCostPerStep != 10 || be.RebalanceCostPerStep != 5 {
		t.Fatalf("unpaired cell leaked into the averages: %+v", be)
	}
	if be.CostSavedFrac != 0.5 {
		t.Fatalf("cost saved = %g, want 0.5", be.CostSavedFrac)
	}
	if len(be.Best) != 1 || be.Best[0].Cell != "b" {
		t.Fatalf("best = %+v, want cell b", be.Best)
	}
}

// TestInstanceSharedAcrossCells checks the stream-keying rule: every cell
// serving the same workload label gets the identical request sequence.
func TestInstanceSharedAcrossCells(t *testing.T) {
	spec := testSpec(t)
	instA := newInstances(spec, ".")
	instB := newInstances(spec, ".")
	w := WorkloadSpec{Generator: "hotspot"}
	a, err := instA.For(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := instB.For(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatal("instance lengths differ")
	}
	for i := range a.Steps {
		if len(a.Steps[i].Requests) != len(b.Steps[i].Requests) {
			t.Fatalf("step %d: request counts differ", i)
		}
		for j := range a.Steps[i].Requests {
			if !a.Steps[i].Requests[j].Equal(b.Steps[i].Requests[j]) {
				t.Fatalf("step %d request %d differs", i, j)
			}
		}
	}
}
