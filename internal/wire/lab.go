// The scenario-lab result schema: the per-cell summary one experiment
// writes, the cross-cell report a sweep aggregates, and the compact
// lab_matrix entry merged into the BENCH_*.json trajectory. They live in
// wire (not internal/lab) because they are an on-disk interchange format
// like the checkpoint document: external tooling reads the files, and
// CI's bench summary embeds the bench entry verbatim.

package wire

// LabCellSummary is results/<stamp>/<cell>/summary.json: the outcome of
// one experiment cell. Every field is a deterministic function of the
// matrix spec and the seed — no wall-clock, no hostnames — which is what
// makes the determinism contract checkable by byte comparison: rerunning
// a cell with the same spec and seed must reproduce the file exactly.
type LabCellSummary struct {
	V int `json:"v"`
	// Cell is the cell's canonical name (the directory name).
	Cell string `json:"cell"`
	// Workload identifies the request source: a workload generator name,
	// "adversary:<name>", or "trace:<basename>".
	Workload string `json:"workload"`
	// Shards, K, Rebalance, and CapMode are the cell's coordinates on the
	// serving-policy axes.
	Shards    int    `json:"shards"`
	K         int    `json:"k"`
	Rebalance string `json:"rebalance"`
	CapMode   string `json:"cap_mode"`
	// Transport is "inproc" (a protocol.Service driven directly) or
	// "stream" (a spawned server fed over the streaming transport).
	Transport string `json:"transport"`
	// Window is the negotiated in-flight pipeline depth of a live cell
	// (1 = lockstep); 0 for in-process cells.
	Window int `json:"window,omitempty"`
	// Seed is the matrix seed the cell's random stream derives from.
	Seed uint64 `json:"seed"`
	// T and Requests are the executed step and request totals.
	T        int `json:"t"`
	Requests int `json:"requests"`
	// Algorithm is the backend's reported name (per-shard algorithm
	// tagged with the shard count in router mode).
	Algorithm string `json:"algorithm"`
	// Cost is the run's accumulated cost; CostPerStep is Cost.Total / T.
	Cost        Cost    `json:"cost"`
	CostPerStep float64 `json:"cost_per_step"`
	// Clamped, CapHits, MaxMove, and TotalMove are the cap-pressure and
	// movement counters of the run.
	Clamped   int     `json:"clamped"`
	CapHits   int     `json:"cap_hits"`
	MaxMove   float64 `json:"max_move"`
	TotalMove float64 `json:"total_move"`
	// Rebalances counts applied server migrations; FinalKs is the
	// per-shard fleet layout at the end of the run (absent unsharded).
	Rebalances int   `json:"rebalances"`
	FinalKs    []int `json:"final_ks,omitempty"`
	// Failovers counts shard-rehoming events (cluster-backed cells).
	Failovers int `json:"failovers"`
}

// LabReport is results/<stamp>/report.json: the aggregated cross-cell
// view of one sweep. Unlike the summaries it may carry wall-clock fields
// (ElapsedMS), so only the per-cell summary files are byte-reproducible.
type LabReport struct {
	V int `json:"v"`
	// Name and Seed come from the matrix spec.
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Cells counts the matrix; Ran and Skipped split it into cells this
	// sweep executed and cells resumed from an existing summary.
	Cells   int `json:"cells"`
	Ran     int `json:"ran"`
	Skipped int `json:"skipped"`
	// ElapsedMS is the sweep's wall-clock time.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Summaries holds every cell's summary, sorted by cell name.
	Summaries []LabCellSummary `json:"summaries"`
	// Bench is the compact entry bench.sh merges into BENCH_*.json.
	Bench LabBenchEntry `json:"bench"`
}

// LabBenchEntry is the "lab_matrix" entry of the BENCH_*.json trajectory:
// the sweep's headline answer to "which policy wins where".
type LabBenchEntry struct {
	// Matrix is the spec name; Cells the number of cells aggregated.
	Matrix string `json:"matrix"`
	Cells  int    `json:"cells"`
	// Workloads lists the distinct request sources, sorted.
	Workloads []string `json:"workloads"`
	// StaticCostPerStep and RebalanceCostPerStep average cost/step over
	// the (workload, shards, k, cap) combinations present under BOTH a
	// static and a rebalancing policy, so the ratio compares like with
	// like; CostSavedFrac is 1 − rebalance/static. All three are 0 when
	// the matrix has no such pair.
	StaticCostPerStep    float64 `json:"static_cost_per_step"`
	RebalanceCostPerStep float64 `json:"rebalance_cost_per_step"`
	CostSavedFrac        float64 `json:"cost_saved_frac"`
	// Best names the cheapest (cost/step) cell per workload, sorted by
	// workload — the per-scenario policy winner.
	Best []LabBestCell `json:"best"`
}

// LabBestCell is one workload's winning cell inside LabBenchEntry.
type LabBestCell struct {
	Workload    string  `json:"workload"`
	Cell        string  `json:"cell"`
	CostPerStep float64 `json:"cost_per_step"`
}
