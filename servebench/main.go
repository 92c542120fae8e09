// Command servebench is the repository's serving benchmark. It runs one
// workload against the real serving stack, built in this process with the
// constructors and default options cmd/mobserve and cmd/mobcluster use,
// and drives it over loopback TCP through internal/streamclient (binary
// frames), in three phases on one session:
//
//  1. lockstep: one frame in flight, one engine step per frame; a fixed
//     frame count, so the phase, its cost figure and its replay are
//     deterministic per seed;
//  2. saturation: a closed loop with the workload's in-flight window;
//  3. open: Poisson arrivals at the workload's rate, sent whether or not
//     earlier frames were acked and each timed from when it was due,
//     while a reader polls GET /state at 20 Hz on a second connection.
//
// Each phase runs in segments, each on a fresh stream connection to the
// same session, and the timed phases report medians over segments. All
// inputs are drawn from the seed before any timing starts. The workloads,
// their rates, windows and latency limits, what each per-layer metric
// measures, and which layer metric should move which end-to-end metric on
// each workload, are in workloads.json beside this file.
//
// With -trace 0 it prints the end-to-end metrics of an untraced run. With
// -trace 1 it makes an untraced run and then a traced one, whose wrappers
// around the algorithm, the backend and the client's frames record spans,
// and prints the per-layer metrics derived from them. Every output is
// checked: the lockstep acks are replayed through a fresh in-process
// session or router bit for bit, every phase's acks must add up to the
// change in /metrics, and the traced run must leave the same /metrics and
// /state as the untraced one. The last line of standard output is one JSON
// object; the exit code is 1 when a check fails and 3 when the load
// generator ran too late for the run to count.
//
// Usage, from the repository root:
//
//	sh servebench/run.sh --workload edge-small --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fsx"
)

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name from workloads.json")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 30, "measured seconds (lockstep is a fixed frame count; saturation and open share the rest)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics from an untraced and a traced run")
	dir := fl.String("dir", filepath.Join(".bench_build", "run"), "directory for checkpoints, spans and results")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	s, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	w, err := s.workload(*name)
	if err != nil {
		return fail(err)
	}
	fr, err := genFrames(s, w, *seed)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fail(err)
	}
	mach := describeMachine(w, *seed, *seconds, *dir)

	total := time.Duration(*seconds) * time.Second
	satDur, openDur := time.Duration(float64(total)*s.SaturationShare), time.Duration(float64(total)*s.OpenShare)
	if *trace == 1 {
		// Two runs share the time: each gets half of the timed phases and
		// of the lockstep frames.
		satDur, openDur = satDur/2, openDur/2
		fr.lockstep = fr.lockstep[:len(fr.lockstep)/2]
	}
	cfg := runCfg{spec: s, work: w, frames: fr, satDur: satDur,
		arrivals: arrivals(*seed, w.Rate, openDur, s.Segments),
		setups:   s.SetupRepeats - 1,
		dir:      filepath.Join(*dir, "untraced"),
	}
	epoch := time.Now()
	var runs []*runOut
	var metrics map[string]metric
	if *trace == 0 {
		u, err := run(cfg, epoch)
		if err != nil {
			return fail(err)
		}
		runs = []*runOut{u}
		metrics = endToEnd(w, u)
	} else {
		cfg.setups = 0
		u, err := run(cfg, epoch)
		if err != nil {
			return fail(err)
		}
		tc := cfg
		tc.dir = filepath.Join(*dir, "traced")
		tc.tr = newTracer(epoch)
		t, err := run(tc, epoch)
		if err != nil {
			return fail(err)
		}
		runs = []*runOut{u, t}
		if !bytes.Equal(u.afterLock[0], t.afterLock[0]) || !bytes.Equal(u.afterLock[1], t.afterLock[1]) {
			t.fails = append(t.fails, "traced run: /metrics or /state after lockstep differ from the untraced run's")
		}
		if u.costPerRequest != t.costPerRequest {
			t.fails = append(t.fails, "traced run: cost_per_request differs from the untraced run's")
		}
		if metrics, err = perLayer(fr.pool, u, t, *dir); err != nil {
			return fail(err)
		}
		if err := writeSpans(filepath.Join(*dir, "spans-"+w.Name+".json"), t); err != nil {
			return fail(err)
		}
	}

	res := result{Metrics: metrics}
	var fails []string
	for _, r := range runs {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		fails = append(fails, r.fails...)
		// A generator later than the latency limit can no longer tell
		// whether the server met it.
		if lag := lagP99(r); lag > w.LatencyLimitMS {
			fmt.Fprintf(stderr, "servebench: INVALID run: the open-loop generator ran %.3f ms late at p99, beyond the %g ms latency limit; the numbers would describe the generator, not the server\n", lag, w.LatencyLimitMS)
			return 3
		}
	}
	res.Correct = len(fails) == 0
	free := ungated(runs[0])
	if err := writeResult(filepath.Join(*dir, fmt.Sprintf("result-%s-trace%d.json", w.Name, *trace)), mach, res, free, fails); err != nil {
		return fail(err)
	}
	report(stdout, mach, runs, res, free, fails)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines before the result line.
func report(out io.Writer, mach machine, runs []*runOut, res result, free map[string]metric, fails []string) {
	m, _ := json.Marshal(mach)
	fmt.Fprintf(out, "machine %s\n", m)
	for i, r := range runs {
		kind := "untraced"
		if i == 1 {
			kind = "traced"
		}
		fmt.Fprintf(out, "%s run: lockstep %d frames, saturation %d, open %d (%d reads); %d failed, %d throttled and resent\n",
			kind, r.lock.tally.frames, r.sat.tally.frames, r.open.tally.frames, len(r.reads.latency), r.failed(), r.throttles)
	}
	fmt.Fprintf(out, "error_frac = %g (%d of %d frames failed)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	printMetrics(out, "", res.Metrics)
	printMetrics(out, " (not gated)", free)
	for _, f := range fails {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
}

func printMetrics(out io.Writer, note string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %.6g %s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}

func writeResult(path string, mach machine, res result, free map[string]metric, fails []string) error {
	data, err := json.MarshalIndent(struct {
		Machine machine           `json:"machine"`
		Result  result            `json:"result"`
		Ungated map[string]metric `json:"ungated"`
		Fails   []string          `json:"fails,omitempty"`
	}{mach, res, free, fails}, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, append(data, '\n'), nil)
}

// writeSpans writes the traced run's spans, in nanoseconds since the run's
// epoch: frames as [id, due, sent, sent_end, acked, t] of the lockstep and
// open phases (the saturation phase only counts its frames),
// backend steps as [t, start, end, async_start, async_end,
// resolve_start, resolve_end], and algorithm moves as [start, end].
func writeSpans(path string, t *runOut) error {
	doc := struct {
		Frames [][6]int64 `json:"frames"`
		Steps  [][7]int64 `json:"steps"`
		Moves  [][2]int64 `json:"moves"`
	}{}
	for _, ph := range []*phase{t.lock, t.open} {
		for _, r := range ph.recs {
			doc.Frames = append(doc.Frames, [6]int64{r.ID, r.Due, r.Sent, r.SentEnd, r.Acked, int64(r.T)})
		}
	}
	for _, s := range t.stepSpans {
		doc.Steps = append(doc.Steps, [7]int64{int64(s.T), s.Start, s.End, s.Async.Start, s.Async.End, s.Resolve.Start, s.Resolve.End})
	}
	for _, m := range t.moves {
		doc.Moves = append(doc.Moves, [2]int64{m.Start, m.End})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, data, nil)
}
