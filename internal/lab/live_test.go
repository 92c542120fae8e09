package lab

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestLiveSweepSmoke runs a tiny live-mode matrix against a freshly built
// mobserve binary: spawned server per cell, streamclient drive, SSE event
// follower, /metrics + /state scrape. Live cells are not byte-
// deterministic (real processes, real scheduling), so the assertions are
// on serving facts, not bytes.
func TestLiveSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live-mode smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mobserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mobserve").CombinedOutput(); err != nil {
		t.Fatalf("building mobserve: %v\n%s", err, out)
	}

	spec, err := ParseSpec([]byte(`{
		"name": "live-smoke", "seed": 5, "t": 30, "requests": 2,
		"mode": "live",
		"workloads": [{"generator": "hotspot"}],
		"shards": [2], "k": [2],
		"rebalance": ["static"],
		"window": [1, 4]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, OutDir: t.TempDir(), Parallel: 2, MobserveBin: bin}
	report, err := r.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Ran != 2 {
		t.Fatalf("ran %d cells, want 2", report.Ran)
	}
	for _, sum := range report.Summaries {
		if sum.Transport != "stream" {
			t.Errorf("cell %s: transport %q, want stream", sum.Cell, sum.Transport)
		}
		if sum.T != 30 || sum.Requests != 60 {
			t.Errorf("cell %s: served %d steps / %d requests, want 30/60", sum.Cell, sum.T, sum.Requests)
		}
		if sum.Cost.Total <= 0 {
			t.Errorf("cell %s: no cost recorded", sum.Cell)
		}
		if sum.Window < 1 {
			t.Errorf("cell %s: negotiated window %d", sum.Cell, sum.Window)
		}
		if len(sum.FinalKs) != 2 {
			t.Errorf("cell %s: final layout %v, want 2 shards", sum.Cell, sum.FinalKs)
		}
	}
}
