#!/usr/bin/env bash
# Performance ledger: commits what perfbench and the model benches measure.
#
#   scripts/ledger.sh --label TEXT [--tree DIR] [--sha SHA]
#   scripts/ledger.sh --model BUILD_DIR
#
# Wall-clock mode runs DIR's perfbench/run.py (DIR defaults to this
# checkout) for every workload of BENCHMARK.json at --trace 0 and --trace 1
# (seed 7, --seconds 50) and appends one entry per workload to
# BENCH_<workload>.json in this checkout: the label, the measured tree's git
# sha, run.py's env block and both result lines. An exported tree has no
# .git, so its sha must be passed with --sha; a checkout with uncommitted
# source changes is recorded as <HEAD>-dirty. Wall-clock entries are a
# record, never a gate: they move with the host.
#
# Model mode regenerates BENCH_model.json from BUILD_DIR's benches. It holds
# virtual-time outputs only, which are exact: the Fig. 8(d), Fig. 9 and
# Fig. 10 tables and the A1-A5 and A7 ablation tables as the benches print
# them, the A6 pipeline and A9 topology ablation JSON, the schedule digest
# and the dispatches per request of CI's slo16.kv config, which pin its KV
# traffic exactly, and the schedule digest and dispatch count of CI's
# slo16drop KV config, which pin the fault path. CI's perf-ledger job
# regenerates it and fails on any difference.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SEED=7
RUN_SECONDS=50

usage() {
  sed -n '4,5p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
  exit 2
}

model_ledger() {
  local build work
  build="$(cd "$1" && pwd)"
  work="$(mktemp -d)"
  # Expanded now: `work` is local and gone by the time the trap runs.
  trap "rm -rf '$work'" EXIT
  (
    cd "$work"
    "$build/bench/bench_fig8_link_transfer" >fig8.txt
    "$build/bench/bench_fig9_putget" >fig9.txt
    "$build/bench/bench_fig10_barrier" >fig10.txt
    "$build/bench/bench_ablation_ringsize" >a1.txt
    "$build/bench/bench_ablation_barrier" >a2.txt
    "$build/bench/bench_ablation_bypass" >a3.txt
    "$build/bench/bench_ablation_tuning" >a4.txt
    "$build/bench/bench_ablation_multipe" >a5.txt
    "$build/bench/bench_ablation_pipeline" >/dev/null
    "$build/bench/bench_ablation_topology" >/dev/null
    "$build/bench/bench_ablation_faults" >faults.txt
    # CI's workload-slo slo16 KV run (its other scenarios run separately).
    "$build/bench/bench_workload" --scenario=kv \
      --hosts=16 --requests=2048 --tuning=paper --out-prefix=slo16 >/dev/null
    # CI's workload-slo doorbell-drop run: the fault path's schedule.
    "$build/bench/bench_workload" --scenario=kv \
      --hosts=16 --requests=1024 --fault-plan=drop \
      --out-prefix=slo16drop >/dev/null
  )
  python3 - "$work" "$REPO_ROOT/BENCH_model.json" <<'EOF'
import json, os, sys

work, out = sys.argv[1], sys.argv[2]


def tables(name, prefix):
    """The lines of every table titled `prefix`..., exactly as printed."""
    lines, keep = [], False
    with open(os.path.join(work, name)) as f:
        for line in f.read().split("\n"):
            if line.startswith("== "):
                keep = line.startswith("== " + prefix)
            elif not line:
                keep = False
            if keep:
                lines.append(line)
    if not lines:
        raise SystemExit("ledger: no '%s' table in %s" % (prefix, name))
    return lines


def load(name):
    with open(os.path.join(work, name)) as f:
        return json.load(f)


kv = load("slo16.kv.json")
drop = load("slo16drop.kv.json")
model = {
    "fig8d": tables("fig8.txt", "Fig 8(d)"),
    "fig9": tables("fig9.txt", "Fig 9"),
    "fig10": tables("fig10.txt", "Fig 10"),
    "a1_ringsize": tables("a1.txt", "Ablation A1"),
    "a2_barrier": tables("a2.txt", "Ablation A2"),
    "a3_bypass": tables("a3.txt", "Ablation A3"),
    "a4_tuning": tables("a4.txt", "Ablation A4"),
    "a5_multipe": tables("a5.txt", "Ablation A5"),
    "a6_pipeline": load("bench_ablation_pipeline.json"),
    "a7_faults": tables("faults.txt", "Ablation A7"),
    "a9_topology": load("bench_ablation_topology.json"),
    "slo16_kv": {
        "schedule_digest": kv["schedule_digest"],
        "schedule_dispatches": kv["schedule_dispatches"],
        "requests_issued": kv["requests"]["issued"],
        "dispatches_per_request":
            kv["schedule_dispatches"] / kv["requests"]["issued"],
    },
    "slo16drop_kv": {
        "schedule_digest": drop["schedule_digest"],
        "schedule_dispatches": drop["schedule_dispatches"],
    },
}
with open(out, "w") as f:
    json.dump(model, f, indent=1, sort_keys=True)
    f.write("\n")
print("ledger: wrote " + out)
EOF
}

wall_ledger() {
  local tree="$1" sha="$2" label="$3" workload trace
  tree="$(cd "$tree" && pwd)"
  if [[ -z "$sha" ]]; then
    sha="$(git -C "$tree" rev-parse HEAD 2>/dev/null)" || {
      echo "ledger: $tree has no git history; pass --sha" >&2
      exit 2
    }
    if [[ -n "$(git -C "$tree" status --porcelain --untracked-files=no -- \
                src tools perfbench)" ]]; then
      sha="$sha-dirty"
    fi
  fi
  mkdir -p "$tree/.bench_out"
  for workload in $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
      "$REPO_ROOT/BENCHMARK.json"); do
    for trace in 0 1; do
      echo "ledger: $workload --trace $trace" >&2
      # run.py prints its result line last; the rest is for the reader.
      (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
        --seed "$SEED" --seconds "$RUN_SECONDS" --trace "$trace") \
        | tee "$tree/.bench_out/ledger-trace$trace.log" >&2
    done
    python3 - "$REPO_ROOT/BENCH_$workload.json" "$workload" "$label" "$sha" \
      "$tree/.bench_out/$workload-seed$SEED-trace0/env.json" \
      "$tree/.bench_out/ledger-trace0.log" \
      "$tree/.bench_out/ledger-trace1.log" <<'EOF'
import json, os, sys

path, workload, label, sha, env, trace0, trace1 = sys.argv[1:]
ledger = {"workload": workload, "entries": []}
if os.path.exists(path):
    with open(path) as f:
        ledger = json.load(f)


def result_line(log):
    with open(log) as f:
        return json.loads(f.read().strip().splitlines()[-1])


with open(env) as f:
    env_block = json.load(f)
ledger["entries"].append({
    "label": label,
    "git_sha": sha,
    "env": env_block,
    "trace0": result_line(trace0),
    "trace1": result_line(trace1),
})
with open(path, "w") as f:
    json.dump(ledger, f, indent=1, sort_keys=True)
    f.write("\n")
print("ledger: appended '%s' to %s" % (label, path))
EOF
  done
}

tree="$REPO_ROOT" sha="" label="" model=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --model) model="${2:?}"; shift 2 ;;
    --tree) tree="${2:?}"; shift 2 ;;
    --sha) sha="${2:?}"; shift 2 ;;
    --label) label="${2:?}"; shift 2 ;;
    *) usage ;;
  esac
done
if [[ -n "$model" ]]; then
  model_ledger "$model"
elif [[ -n "$label" ]]; then
  wall_ledger "$tree" "$sha" "$label"
else
  usage
fi
