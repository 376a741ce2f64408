#!/usr/bin/env bash
# Benchmark the simulator and emit a JSON report.
#
# Measures, for the current tree:
#   * `all_figures` end-to-end wall clock (median / min of N runs) and
#     peak RSS — the whole-paper regeneration that the batch runner and
#     engine hot path both feed into;
#   * engine throughput in simulated events per wall-clock second
#     (examples/bench_throughput.rs), untraced, with PowerScope
#     instrumentation on, and with the causal recorder on, plus the
#     traced/untraced and causal/untraced overhead ratios;
#   * causal overhead at scale: a 256-rank class-C FT iteration through
#     the real binary with and without `--causal` (the acceptance gate is
#     < 10% overhead enabled);
#   * per-scenario Criterion timings from the `engine` bench;
#   * SweepStore cold-vs-warm `all_figures --store` wall clock: the cold
#     pass executes and fills the result cache, the warm pass replays it
#     (identical output bytes, near-zero engine work).
#
#   * simlint analyzer wall clock, cold (--no-cache) and warm (the
#     content-hash incremental cache) — the static-analysis cost the
#     lint gate adds to a developer loop;
#
# Usage: scripts/bench.sh [output.json]    (default BENCH_PR9.json)
#        scripts/bench.sh cap [output.json]     (default BENCH_PR8.json)
#        scripts/bench.sh service [output.json] (default BENCH_PR10.json)
#
# The `cap` mode runs examples/bench_powercap.rs: the power-cap
# acceptance benchmark (imbalanced ft-test4 under an 80 W budget),
# asserting the cap held and that the redistribute policy beats the
# best cap-feasible uniform static on weighted ED^2P.
#
# The `service` mode runs examples/bench_service.rs: a pwrperfd daemon
# on loopback TCP draining a BENCH_SERVICE_JOBS-cell grid (default
# 10000) cold, then the warm re-sweep and store-only query paths,
# asserting zero warm engine executions and bit-identical replay.
#
# Runs are sequential on an otherwise idle machine; prefer the median
# over the mean, and compare medians across trees measured back-to-back.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "cap" ]]; then
  OUT="${2:-BENCH_PR8.json}"
  cargo build --release -q --example bench_powercap
  ./target/release/examples/bench_powercap | tee "$OUT"
  exit 0
fi

if [[ "${1:-}" == "service" ]]; then
  OUT="${2:-BENCH_PR10.json}"
  cargo build --release -q --example bench_service
  ./target/release/examples/bench_service | tee "$OUT"
  exit 0
fi

OUT="${1:-BENCH_PR9.json}"
RUNS="${BENCH_RUNS:-30}"

cargo build --release -q -p pwrperf-bench --bin all_figures
cargo build --release -q --example bench_throughput
cargo build --release -q -p pwrperf-cli
cargo build --release -q -p simlint

THROUGHPUT="$(./target/release/examples/bench_throughput 100)"
THROUGHPUT_TRACED="$(./target/release/examples/bench_throughput 100 traced)"
THROUGHPUT_CAUSAL="$(./target/release/examples/bench_throughput 100 causal)"
BENCH="$(cargo bench -q -p pwrperf-bench --bench engine 2>/dev/null | grep 'time:' || true)"

RUNS="$RUNS" OUT="$OUT" THROUGHPUT="$THROUGHPUT" \
  THROUGHPUT_TRACED="$THROUGHPUT_TRACED" THROUGHPUT_CAUSAL="$THROUGHPUT_CAUSAL" \
  BENCH="$BENCH" python3 - <<'EOF'
import json, os, re, resource, statistics, subprocess, time

runs = int(os.environ["RUNS"])
binary = "./target/release/all_figures"

subprocess.run([binary], stdout=subprocess.DEVNULL)  # warm-up
wall = []
for _ in range(runs):
    t0 = time.perf_counter()
    subprocess.run([binary], stdout=subprocess.DEVNULL)
    wall.append(time.perf_counter() - t0)
maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

tp = dict(
    line.split(": ") for line in os.environ["THROUGHPUT"].splitlines() if ": " in line
)
tpt = dict(
    line.split(": ")
    for line in os.environ["THROUGHPUT_TRACED"].splitlines()
    if ": " in line
)
tpc = dict(
    line.split(": ")
    for line in os.environ["THROUGHPUT_CAUSAL"].splitlines()
    if ": " in line
)
criterion = {
    m[1].strip(): int(m[2])
    for m in re.finditer(r"(.+?)\s+time: (\d+) ns/iter", os.environ["BENCH"])
}

# SweepStore cold vs warm: same regeneration, first filling the result
# cache, then replaying it. Output bytes must be identical.
import shutil, tempfile
store = tempfile.mkdtemp(prefix="pwrperf-bench-store-")
t0 = time.perf_counter()
cold = subprocess.run([binary, "--store", store], capture_output=True).stdout
cold_s = time.perf_counter() - t0
t0 = time.perf_counter()
warm = subprocess.run([binary, "--store", store], capture_output=True).stdout
warm_s = time.perf_counter() - t0
assert cold == warm, "warm all_figures output must be byte-identical to cold"
shutil.rmtree(store, ignore_errors=True)

# Causal overhead at scale: one 256-rank class-C FT iteration through the
# real binary, with and without the causal recorder. Median of 5 runs;
# the acceptance gate for blame analysis is < 10% overhead enabled.
cli = "./target/release/pwrperf"
scale_args = ["run", "-w", "ft-scale-256", "-s", "static-1400"]
def median_wall(extra):
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([cli, *scale_args, *extra], stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)
subprocess.run([cli, *scale_args], stdout=subprocess.DEVNULL)  # warm-up
scale_plain_s = median_wall([])
scale_causal_s = median_wall(["--causal"])

# simlint analyzer cost: the cold full pass CI runs, then the warm
# cached pass the developer loop sees (fingerprint hit, zero re-parses).
lint = "./target/release/simlint"
def lint_wall(args):
    t0 = time.perf_counter()
    r = subprocess.run([lint, *args], stdout=subprocess.DEVNULL)
    assert r.returncode == 0, f"simlint {args} found violations"
    return time.perf_counter() - t0
lint_cold_s = lint_wall(["--deny", "--no-cache"])
lint_wall(["--deny"])  # fill the cache
lint_warm_s = lint_wall(["--deny"])

report = {
    "all_figures": {
        "runs": runs,
        "wall_ms_median": round(statistics.median(wall) * 1000, 2),
        "wall_ms_min": round(min(wall) * 1000, 2),
        "peak_rss_kb": maxrss_kb,
    },
    "engine_throughput": {
        "events": int(tp["events"]),
        "wall_secs": float(tp["wall_secs"]),
        "events_per_sec": int(float(tp["events_per_sec"])),
    },
    "engine_throughput_traced": {
        "events": int(tpt["events"]),
        "wall_secs": float(tpt["wall_secs"]),
        "events_per_sec": int(float(tpt["events_per_sec"])),
        # Wall-clock cost of full PowerScope instrumentation (metrics
        # registry + 64k-event trace) relative to the untraced run.
        "overhead_ratio": round(
            float(tp["events_per_sec"]) / float(tpt["events_per_sec"]), 4
        ),
    },
    "engine_throughput_causal": {
        "events": int(tpc["events"]),
        "wall_secs": float(tpc["wall_secs"]),
        "events_per_sec": int(float(tpc["events_per_sec"])),
        # Wall-clock cost of the causal recorder (dependency log +
        # attribution solve) relative to the plain run.
        "overhead_ratio": round(
            float(tp["events_per_sec"]) / float(tpc["events_per_sec"]), 4
        ),
    },
    "ft_scale_256_causal": {
        "plain_ms_median": round(scale_plain_s * 1000, 2),
        "causal_ms_median": round(scale_causal_s * 1000, 2),
        "overhead_ratio": round(scale_causal_s / scale_plain_s, 4),
    },
    "simlint": {
        "cold_ms": round(lint_cold_s * 1000, 2),
        "warm_ms": round(lint_warm_s * 1000, 2),
        "warm_speedup": round(lint_cold_s / lint_warm_s, 2),
    },
    "criterion_engine_ns_per_iter": criterion,
    "sweepstore_all_figures": {
        "cold_ms": round(cold_s * 1000, 2),
        "warm_ms": round(warm_s * 1000, 2),
        "warm_speedup": round(cold_s / warm_s, 2),
        "outputs_identical": True,
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps(report, indent=2))
EOF
