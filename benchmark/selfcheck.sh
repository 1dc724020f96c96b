#!/usr/bin/env bash
# Is the benchmark steady enough to gate on? Runs the suite as two sets of
# three untraced runs at one seed, takes per-set medians, and fails if
#   * any end-to-end metric's two set medians differ by more than the
#     metric's own bound in BENCHMARK.json, or
#   * a deterministic metric (client_kb_per_round, ndcg20 exactly;
#     peak_heap_mb to 0.1 %) differs between any two runs of a workload, or
#   * the resident and loopback ML-100K runs, which train the same
#     federation, disagree on ndcg20 or client_kb_per_round.
# About 12 minutes on 2 cores. Usage: benchmark/selfcheck.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-2024}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/ptf-benchmark"

python3 - "$bin" "$here/../BENCHMARK.json" "$seed" <<'PY'
import json, re, statistics, subprocess, sys

bin_path, spec_path, seed = sys.argv[1:4]
spec = json.load(open(spec_path))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
RUNS_PER_SET = 3

def run(workload):
    out = subprocess.run(
        [bin_path, "--workload", workload, "--seed", seed,
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: output checks failed\n{out.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # ranking quality is not a gated metric (see README, "Quality"), but it
    # is printed, and must reproduce exactly at one seed
    values["ndcg20"] = float(re.search(r"^  ndcg20 (\S+)", out.stdout, re.M).group(1))
    return values

runs = {w: [] for w in workloads}          # workload -> 6 runs, set A then set B
for s in "AB":
    for i in range(RUNS_PER_SET):
        for w in workloads:
            runs[w].append(run(w))
            print(f"set {s} run {i + 1} {w}: " +
                  "  ".join(f"{k}={v:.6g}" for k, v in runs[w][-1].items()), flush=True)

failures = []
print(f"\n{'workload':24} {'metric':22} {'set A':>12} {'set B':>12} {'diff':>8} {'bound':>6}")
for w in workloads:
    for m in metrics:
        name = m["name"]
        a = statistics.median(r[name] for r in runs[w][:RUNS_PER_SET])
        b = statistics.median(r[name] for r in runs[w][RUNS_PER_SET:])
        diff = abs(b - a) / a
        ok = diff <= m["bound"]
        print(f"{w:24} {name:22} {a:12.6g} {b:12.6g} {diff:8.4f} {m['bound']:6.2f}"
              + ("" if ok else "  FAIL"))
        if not ok:
            failures.append(f"{w}/{name}: sets differ by {diff:.4f} > {m['bound']}")
    for name, tolerance in (("client_kb_per_round", 0.0), ("ndcg20", 0.0), ("peak_heap_mb", 1e-3)):
        values = [r[name] for r in runs[w]]
        if (max(values) - min(values)) / min(values) > tolerance:
            failures.append(f"{w}/{name}: not reproducible at seed {seed}: {values}")

resident, loopback = runs["ml100k-mf-resident"][0], runs["ml100k-mf-loopback"][0]
for name in ("client_kb_per_round", "ndcg20"):
    if resident[name] != loopback[name]:
        failures.append(f"resident and loopback disagree on {name}: "
                        f"{resident[name]} vs {loopback[name]}")

if failures:
    sys.exit("\nselfcheck FAILED\n" + "\n".join(failures))
print("\nselfcheck ok")
PY
