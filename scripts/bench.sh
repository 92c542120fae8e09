#!/bin/sh
# bench.sh: run the reproduction benchmark suite (BenchmarkE*), the
# sharded-vs-unsharded serving benchmark (BenchmarkRouterStep), the
# transport comparison (BenchmarkStreamVsHTTP), the shard-layout
# comparison (BenchmarkRebalanceVsStatic), the multi-process serving
# comparison (BenchmarkClusterVsLocal), and the pipelined-ingestion
# comparison (BenchmarkClusterPipelinedVsLockstep) and emit a
# machine-readable JSON summary, so the bench trajectory is tracked as a
# CI artifact instead of scrolling away in logs. The summary carries four
# derived entries: "stream_vs_http" (per-batch latency of each transport,
# the speedup of pipelined binary-frame ingestion over per-request HTTP,
# and the stream path's allocs/op — the zero-copy pipeline's headline
# number), "rebalance_vs_static" (per-step serving cost of the drifting-hotspot
# workload under a static vs a dynamically rebalanced shard layout, and
# the fraction of cost the rebalancer saves), "cluster_vs_local"
# (per-step latency of the in-process sharded server vs a coordinator
# forwarding to worker-hosted shards over loopback, pinning the
# forwarding overhead of the cluster tier), and
# "cluster_pipelined_vs_lockstep" (per-step latency of the cluster tier
# in lockstep vs with a pipelined ingestion window and group-commit
# checkpointing, the speedup the window buys, and the negotiated window
# depth). A fifth entry, "lab_matrix", is not awk-derived at all: the
# scenario lab's committed example matrix (matrices/example.json) is
# swept via cmd/moblab — in-process cells, so the numbers are
# byte-deterministic per seed — and its aggregated cross-cell bench
# entry (paired static-vs-threshold cost/step, best cell per workload)
# is spliced into the summary verbatim.
#
# The script fails (non-zero exit) when any expected summary entry is
# missing from the output — a benchmark that silently stopped emitting
# is a regression, not a gap in the report.
#
#   ./scripts/bench.sh [out.json]        # default out: BENCH_<utc-stamp>.json
#   BENCHTIME=100x ./scripts/bench.sh    # override -benchtime (default 1x
#                                        # for the E-suite, 50x for the
#                                        # router scaling curve, 300x for
#                                        # the transport comparisons, 3x for
#                                        # the full-run layout comparison)
#
# Run from the repository root.
set -eu

out="${1:-BENCH_$(date -u +%Y%m%d-%H%M%S).json}"
raw="$(mktemp)"
lab_dir="$(mktemp -d)"
trap 'rm -f "$raw"; rm -rf "$lab_dir"' EXIT

# Sweep the committed example matrix first: 12 in-process cells, a few
# hundred milliseconds, and the aggregate feeds the "lab_matrix" entry.
go run ./cmd/moblab sweep -matrix matrices/example.json -out "$lab_dir" -stamp bench -q

go test -run '^$' -bench 'BenchmarkE' -benchtime "${BENCHTIME:-1x}" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkRouterStep' -benchtime "${BENCHTIME:-50x}" ./internal/shard/ | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkStreamVsHTTP' -benchtime "${BENCHTIME:-300x}" ./internal/server/ | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkRebalanceVsStatic' -benchtime "${BENCHTIME:-3x}" ./internal/shard/ | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkClusterVsLocal' -benchtime "${BENCHTIME:-200x}" ./internal/cluster/ | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkClusterPipelinedVsLockstep' -benchtime "${BENCHTIME:-200x}" ./internal/cluster/ | tee -a "$raw"

# Convert `BenchmarkName-P   N   T ns/op [extras...]` lines into a JSON
# document. The -P CPU suffix is stripped from the name. The comparison
# benchmarks additionally feed the derived summary objects.
awk -v go_version="$(go version)" -v stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN {
	printf "{\n  \"go\": \"%s\",\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", go_version, stamp
	n = 0
	http_ns = ""; stream_ns = ""; stream_allocs = ""
	static_cost = ""; rebalance_cost = ""
	local_ns = ""; cluster_ns = ""
	lockstep_ns = ""; pipelined_ns = ""; pipe_window = ""
}
/^Benchmark/ && $4 == "ns/op" {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = $3
	extra = ""
	for (i = 4; i < NF; i++) {
		if ($(i+1) == "B/op")      extra = extra sprintf(", \"bytes_per_op\": %s", $i)
		if ($(i+1) == "allocs/op") {
			extra = extra sprintf(", \"allocs_per_op\": %s", $i)
			if (name ~ /BenchmarkStreamVsHTTP\/stream$/) stream_allocs = $i
		}
		if ($(i+1) == "req/s")     extra = extra sprintf(", \"req_per_sec\": %s", $i)
		if ($(i+1) == "window") {
			extra = extra sprintf(", \"window\": %s", $i)
			if (name ~ /BenchmarkClusterPipelinedVsLockstep\/pipelined$/) pipe_window = $i
		}
		if ($(i+1) == "cost/step") {
			extra = extra sprintf(", \"cost_per_step\": %s", $i)
			if (name ~ /BenchmarkRebalanceVsStatic\/static$/)    static_cost = $i
			if (name ~ /BenchmarkRebalanceVsStatic\/rebalance$/) rebalance_cost = $i
		}
	}
	if (name ~ /BenchmarkStreamVsHTTP\/http$/)   http_ns = ns
	if (name ~ /BenchmarkStreamVsHTTP\/stream$/) stream_ns = ns
	if (name ~ /BenchmarkClusterVsLocal\/local$/)   local_ns = ns
	if (name ~ /BenchmarkClusterVsLocal\/cluster$/) cluster_ns = ns
	if (name ~ /BenchmarkClusterPipelinedVsLockstep\/lockstep$/)  lockstep_ns = ns
	if (name ~ /BenchmarkClusterPipelinedVsLockstep\/pipelined$/) pipelined_ns = ns
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, ns, extra
}
END {
	printf "\n  ]"
	if (http_ns != "" && stream_ns != "" && stream_ns + 0 > 0) {
		printf ",\n  \"stream_vs_http\": {\"http_ns_per_batch\": %s, \"stream_ns_per_batch\": %s, \"stream_speedup\": %.2f",
			http_ns, stream_ns, (http_ns + 0) / (stream_ns + 0)
		if (stream_allocs != "") printf ", \"stream_allocs_per_op\": %s", stream_allocs
		printf "}"
	}
	if (static_cost != "" && rebalance_cost != "" && static_cost + 0 > 0) {
		printf ",\n  \"rebalance_vs_static\": {\"static_cost_per_step\": %s, \"rebalance_cost_per_step\": %s, \"cost_saved_frac\": %.3f}",
			static_cost, rebalance_cost, 1 - (rebalance_cost + 0) / (static_cost + 0)
	}
	if (local_ns != "" && cluster_ns != "" && local_ns + 0 > 0) {
		printf ",\n  \"cluster_vs_local\": {\"local_ns_per_step\": %s, \"cluster_ns_per_step\": %s, \"forwarding_overhead_ns\": %d, \"slowdown\": %.2f}",
			local_ns, cluster_ns, (cluster_ns + 0) - (local_ns + 0), (cluster_ns + 0) / (local_ns + 0)
	}
	if (lockstep_ns != "" && pipelined_ns != "" && pipelined_ns + 0 > 0) {
		printf ",\n  \"cluster_pipelined_vs_lockstep\": {\"lockstep_ns_per_step\": %s, \"pipelined_ns_per_step\": %s, \"speedup\": %.2f",
			lockstep_ns, pipelined_ns, (lockstep_ns + 0) / (pipelined_ns + 0)
		if (pipe_window != "") printf ", \"window\": %d", pipe_window + 0
		printf "}"
	}
	printf "\n}\n"
}' "$raw" > "$out"

# Splice the lab sweep's aggregated bench entry into the summary. The
# awk document's last line is the bare closing brace; drop it, put a
# comma after what is now the final entry, and append the lab JSON
# re-indented one level.
lab_json="$lab_dir/bench/bench.json"
if [ -f "$lab_json" ]; then
	spliced="$(mktemp)"
	{
		sed '$d' "$out" | sed '$s/$/,/'
		printf '  "lab_matrix": '
		sed '1!s/^/  /' "$lab_json"
		printf '}\n'
	} > "$spliced"
	mv "$spliced" "$out"
fi

# Fail loudly when an expected summary entry is missing: the benchmark it
# derives from was renamed, skipped, or broke without failing the run.
missing=0
for key in stream_vs_http rebalance_vs_static cluster_vs_local cluster_pipelined_vs_lockstep lab_matrix; do
	if ! grep -q "\"$key\"" "$out"; then
		echo "bench.sh: missing expected summary entry \"$key\" in $out" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi

echo "bench summary written to $out ($(grep -c '"name"' "$out") benchmarks)"
