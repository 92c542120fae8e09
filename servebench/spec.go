package main

import (
	_ "embed"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// specJSON is the benchmark's reference document: the shared serving
// configuration, every workload's rate, window and latency limit, and the
// predicted map from per-layer metric to the end-to-end metrics it should
// move on that workload. It is embedded so the numbers the binary runs
// with are the numbers the document states.
//
//go:embed workloads.json
var specJSON []byte

// spec mirrors workloads.json.
type spec struct {
	Config struct {
		Dim        int     `json:"dim"`
		D          float64 `json:"D"`
		M          float64 `json:"m"`
		Delta      float64 `json:"delta"`
		CoalesceMS int     `json:"coalesce_ms"`
		Queue      int     `json:"queue"`
		Span       float64 `json:"span"`
		Radius     float64 `json:"radius"`
	} `json:"config"`
	ReadHz          int     `json:"read_hz"`
	SetupRepeats    int     `json:"setup_repeats"`
	Segments        int     `json:"segments"`
	SaturationShare float64 `json:"saturation_share"`
	OpenShare       float64 `json:"open_share"`
	// PerLayerNotes says what each per-layer metric measures and over
	// which phase; the benchmark only documents them.
	PerLayerNotes map[string]string `json:"per_layer_notes"`
	Workloads     []workSpec        `json:"workloads"`
}

// workSpec is one served workload.
type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Stack is single (server.New), sharded (server.NewSharded) or
	// cluster (coordinator + two in-process workers).
	Stack     string `json:"stack"`
	Alg       string `json:"alg"`
	Shards    int    `json:"shards"`
	K         int    `json:"k"`
	Generator string `json:"generator"`
	Requests  int    `json:"requests"`
	// Sites, when set, is the Zipf generator's site count.
	Sites int `json:"sites,omitempty"`
	// LockstepFrames is fixed, not timed, so the lockstep phase (and the
	// cost figure and replay it feeds) is identical for one seed.
	LockstepFrames int `json:"lockstep_frames"`
	// PoolFrames is how many distinct frames the saturation and open
	// phases cycle through; it bounds the memory the inputs take.
	PoolFrames int `json:"pool_frames"`
	// Layouts is how many independently seeded generator instances the
	// lockstep frames, and apart from them the pool, are drawn from, in
	// equal blocks. A Zipf instance places its head sites once, and where
	// they land decides the serving cost and how unevenly the shards are
	// loaded, so frames from one instance would make cost_per_request and
	// the timed phases' throughput mostly a property of the seed.
	Layouts        int                 `json:"layouts"`
	Window         int                 `json:"window"`
	Rate           float64             `json:"rate"`
	LatencyLimitMS float64             `json:"latency_limit_ms"`
	Predicts       map[string][]string `json:"predicts"`
}

func loadSpec() (spec, error) {
	var s spec
	if err := wire.UnmarshalStrict(specJSON, &s); err != nil {
		return s, fmt.Errorf("workloads.json: %w", err)
	}
	return s, nil
}

func (s spec) workload(name string) (workSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workSpec{}, fmt.Errorf("unknown workload %q", name)
}

// coreConfig is the configuration cmd/mobserve and cmd/mobcluster build
// from their flags for this workload.
func (s spec) coreConfig(w workSpec) core.Config {
	c := s.Config
	return core.Config{Dim: c.Dim, D: c.D, M: c.M, Delta: c.Delta, K: w.K,
		Partition: core.UniformPartition(w.Shards, c.Span)}
}

func (s spec) coalesce() time.Duration {
	return time.Duration(s.Config.CoalesceMS) * time.Millisecond
}

// frames holds a workload's pre-generated inputs: the lockstep frames and
// the pool the timed phases cycle through.
type frames struct {
	lockstep [][]wire.Point
	pool     [][]wire.Point
}

// genFrames draws every frame the run will send from the seed, before any
// timing starts.
func genFrames(s spec, w workSpec, seed uint64) (frames, error) {
	g, err := workload.ByName(w.Generator)
	if err != nil {
		return frames{}, err
	}
	g = workload.WithRequests(g, w.Requests)
	if z, ok := g.(workload.Zipf); ok && w.Sites > 0 {
		z.Sites = w.Sites
		g = z
	}
	cfg := s.coreConfig(w)
	// draw generates n frames from w.Layouts generator instances, seeded
	// from streams first, first+1, ..., in equal blocks. Stream 1 draws
	// the open phase's arrivals.
	draw := func(n int, first uint64) [][]wire.Point {
		var out [][]wire.Point
		for k := range w.Layouts {
			m := (k+1)*n/w.Layouts - k*n/w.Layouts
			for _, st := range g.Generate(xrand.NewStream(seed, first+uint64(k)), cfg, m).Steps {
				out = append(out, toWire(st.Requests))
			}
		}
		return out
	}
	return frames{lockstep: draw(w.LockstepFrames, 2+uint64(w.Layouts)), pool: draw(w.PoolFrames, 2)}, nil
}

func toWire(pts []geom.Point) []wire.Point {
	out := make([]wire.Point, len(pts))
	for i, p := range pts {
		out[i] = wire.Point(p)
	}
	return out
}

// arrivals draws the open phase's schedule from the seed: for each of
// segments equal parts of dur, Poisson arrivals at rate frames per second,
// as offsets in nanoseconds from the part's start. Random gaps keep the
// sender from locking into one phase against the server's coalescing
// timer, which a fixed interval does for a whole run.
func arrivals(seed uint64, rate float64, dur time.Duration, segments int) [][]int64 {
	r := xrand.NewStream(seed, 1)
	part := dur.Seconds() / float64(segments)
	out := make([][]int64, segments)
	for i := range out {
		for at := r.Exp(rate); at < part; at += r.Exp(rate) {
			out[i] = append(out[i], int64(at*1e9))
		}
	}
	return out
}
