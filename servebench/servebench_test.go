package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/wire"
)

// shortRun runs one pass of a workload with a few lockstep frames and
// short timed phases.
func shortRun(t *testing.T, s spec, w workSpec, fr frames, dir string, tr *tracer, epoch time.Time) *runOut {
	t.Helper()
	out, err := run(runCfg{spec: s, work: w, frames: fr, satDur: 150 * time.Millisecond,
		arrivals: arrivals(7, w.Rate, 300*time.Millisecond, s.Segments), setups: 1, dir: dir, tr: tr}, epoch)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	for _, f := range out.fails {
		t.Errorf("%s: %s", w.Name, f)
	}
	return out
}

// TestTracedRunMatchesUntraced is the decorator contract end to end: on
// one seed, a traced and an untraced stack leave byte-identical /metrics
// and /state after the lockstep phase, and every correctness check of
// both runs holds.
func TestTracedRunMatchesUntraced(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			w.LockstepFrames, w.PoolFrames = 30, 64
			fr, err := genFrames(s, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			epoch := time.Now()
			dir := t.TempDir()
			u := shortRun(t, s, w, fr, filepath.Join(dir, "u"), nil, epoch)
			tr := newTracer(epoch)
			tt := shortRun(t, s, w, fr, filepath.Join(dir, "t"), tr, epoch)
			for i, name := range []string{"/metrics", "/state"} {
				if !bytes.Equal(u.afterLock[i], tt.afterLock[i]) {
					t.Errorf("%s after lockstep differs:\nuntraced %s\ntraced   %s", name, u.afterLock[i], tt.afterLock[i])
				}
			}
			if u.costPerRequest != tt.costPerRequest {
				t.Errorf("cost_per_request %v untraced, %v traced", u.costPerRequest, tt.costPerRequest)
			}
			if len(tt.stepSpans) < len(fr.lockstep) || len(tt.moves) == 0 {
				t.Errorf("traced run recorded %d steps and %d moves", len(tt.stepSpans), len(tt.moves))
			}
			if w.Stack == "cluster" && tt.stepSpans[0].Resolve.End == 0 {
				t.Errorf("coordinator steps carry no resolve span")
			}
			if w.Name == s.Workloads[0].Name {
				checkReportedMetrics(t, w, fr, u, tt, dir)
			}
		})
	}
}

// positionsInto is the backend fast path protocol looks for.
type positionsInto interface {
	PositionsInto([]geom.Point) []geom.Point
}

// TestWrappersKeepOptionalInterfaces checks that each tracing wrapper
// implements exactly the optional interfaces of what it wraps.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeFor[protocol.Backend](),
		reflect.TypeFor[protocol.RegionBackend](),
		reflect.TypeFor[protocol.ShardedBackend](),
		reflect.TypeFor[protocol.PipelinedBackend](),
		reflect.TypeFor[protocol.FailoverBackend](),
		reflect.TypeFor[positionsInto](),
		reflect.TypeFor[core.Snapshotter](),
		reflect.TypeFor[core.FleetSizer](),
	}
	same := func(name string, raw, wrapped any) {
		for _, it := range ifaces {
			if a, b := reflect.TypeOf(raw).Implements(it), reflect.TypeOf(wrapped).Implements(it); a != b {
				t.Errorf("%s: implements %v: raw %v, wrapped %v", name, it, a, b)
			}
		}
	}
	same("session", (*engine.Session)(nil), (*sessionSpans)(nil))
	same("router", (*shard.Router)(nil), (*routerSpans)(nil))
	same("coordinator", (*cluster.Coordinator)(nil), (*coordSpans)(nil))
	tr := newTracer(time.Now())
	for _, a := range []core.FleetAlgorithm{core.Fleet(core.NewMtC()), multi.NewMtCK(), multi.NewLazyK()} {
		same(a.Name(), a, tr.alg(a))
		if got := tr.alg(a).Name(); got != a.Name() {
			t.Errorf("wrapped %s reports name %s", a.Name(), got)
		}
	}
}

// reconcile runs a phase's records through a tally.
func reconcile(before, after wire.MetricsResponse, recs []frameRec) error {
	c := newTally(before)
	for _, r := range recs {
		c.add(r)
	}
	return c.check(after)
}

// TestTallyCatchesMismatch checks the phase gate against doctored acks.
func TestTallyCatchesMismatch(t *testing.T) {
	before := wire.MetricsResponse{Steps: 3, Requests: 9, Cost: wire.Cost{Move: 1, Serve: 2}}
	recs := []frameRec{
		{N: 2, Accepted: 2, T: 3, Batched: 4, Cost: wire.Cost{Move: 0.5, Serve: 0.25}},
		{N: 2, Accepted: 2, T: 3, Batched: 4, Cost: wire.Cost{Move: 0.5, Serve: 0.25}},
		{N: 1, Accepted: 1, T: 4, Batched: 1, Cost: wire.Cost{Move: 0.125, Serve: 1}},
	}
	after := wire.MetricsResponse{Steps: 5, Requests: 14, Cost: wire.Cost{Move: 1.625, Serve: 3.25}}
	if err := reconcile(before, after, recs); err != nil {
		t.Fatalf("consistent acks refused: %v", err)
	}
	// A throttled frame is resent behind later frames, so its ack can
	// name an earlier step than the ack collected before it.
	resent := []frameRec{recs[0], recs[2], recs[1]}
	if err := reconcile(before, after, resent); err != nil {
		t.Fatalf("consistent acks out of step order refused: %v", err)
	}
	cases := map[string]func(rs []frameRec, a *wire.MetricsResponse){
		"cost":     func(rs []frameRec, a *wire.MetricsResponse) { a.Cost.Serve += 1e-12 },
		"gap":      func(rs []frameRec, a *wire.MetricsResponse) { rs[2].T = 5 },
		"batch":    func(rs []frameRec, a *wire.MetricsResponse) { rs[1].Batched = 5 },
		"partial":  func(rs []frameRec, a *wire.MetricsResponse) { rs[2].Accepted = 0 },
		"steps":    func(rs []frameRec, a *wire.MetricsResponse) { a.Steps++ },
		"early":    func(rs []frameRec, a *wire.MetricsResponse) { rs[0].T = 2 },
		"stepcost": func(rs []frameRec, a *wire.MetricsResponse) { rs[1].Cost.Move = 0.75 },
	}
	for name, doctor := range cases {
		rs := append([]frameRec(nil), recs...)
		a := after
		doctor(rs, &a)
		if err := reconcile(before, a, rs); err == nil {
			t.Errorf("%s: doctored acks accepted", name)
		}
	}
}

// benchmarkDoc mirrors BENCHMARK.json; decoding it strictly also checks
// that it has no other keys.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkReportedMetrics checks that the metrics the benchmark prints are
// exactly the ones BENCHMARK.json declares, with the same units, and that
// BENCHMARK.json names the workloads of workloads.json with the same why.
func checkReportedMetrics(t *testing.T, w workSpec, fr frames, u, tt *runOut, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := wire.UnmarshalStrict(data, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	s, _ := loadSpec()
	if len(doc.Workloads) != len(s.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(doc.Workloads), len(s.Workloads))
	}
	for i, dw := range doc.Workloads {
		if dw.Name != s.Workloads[i].Name || dw.Why != s.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, workloads.json %q", i, dw.Name, s.Workloads[i].Name)
		}
	}
	declared := func(names, units []string) map[string]string {
		m := map[string]string{}
		for i, n := range names {
			m[n] = units[i]
		}
		return m
	}
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range doc.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range doc.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	layers, err := perLayer(fr.pool, u, tt, dir)
	if err != nil {
		t.Fatal(err)
	}
	for kind, pair := range map[string]struct {
		want map[string]string
		got  map[string]metric
	}{
		"end_to_end": {declared(e2eNames, e2eUnits), endToEnd(w, u)},
		"per_layer":  {declared(layerNames, layerUnits), layers},
	} {
		var missing []string
		for n, unit := range pair.want {
			if m, ok := pair.got[n]; !ok || m.Unit != unit {
				missing = append(missing, n)
			}
		}
		for n := range pair.got {
			if _, ok := pair.want[n]; !ok {
				missing = append(missing, n)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: declared and reported metrics differ on %s", kind, strings.Join(missing, ", "))
		}
	}
	for n := range layers {
		if s.PerLayerNotes[n] == "" {
			t.Errorf("workloads.json has no note for per-layer metric %s", n)
		}
	}
	for _, ws := range s.Workloads {
		for layer, moves := range ws.Predicts {
			if _, ok := layers[layer]; !ok {
				t.Errorf("%s predicts for unknown layer metric %s", ws.Name, layer)
			}
			for _, m := range moves {
				if _, ok := declared(e2eNames, e2eUnits)[m]; !ok && ungated(u)[m].Unit == "" {
					t.Errorf("%s: %s predicts unknown end-to-end metric %s", ws.Name, layer, m)
				}
			}
		}
	}
}

// TestBadArgumentsFail checks that a bad invocation exits non-zero
// without printing a result.
func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "edge-small", "--trace", "2"},
		{"--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := benchMain(append(args, "--dir", t.TempDir()), &out, &errb); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
