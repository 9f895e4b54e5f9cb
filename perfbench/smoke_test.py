#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --tiny on every workload run.py knows (those of
BENCHMARK.json plus sim_allreduce_torus16), once with --trace 0 and once
with --trace 1, and checks that

  * each run exits 0 and reports correct, with attempted >= 1, failed == 0;
  * the result line names exactly the end-to-end (trace 0) or per-layer
    (trace 1) metrics of BENCHMARK.json, each with its declared unit and a
    finite value, and the human-readable lines print each name and unit
    after the environment block;
  * every metric and workload name the benchmark's specification cites is
    either in BENCHMARK.json or listed with its reason in the
    "Names not in BENCHMARK.json" table of perfbench/README.md.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every name the benchmark's specification cites.
SPEC_WORKLOADS = ["sim_kv_ring16", "sim_allreduce_torus16", "shm_kv4"]
SPEC_END_TO_END = ["ops_per_s", "setup_s", "peak_rss_mib", "virt_ops_per_s",
                   "virt_p50_us", "virt_p99_us", "wall_p50_us", "wall_p99_us",
                   "fail_frac"]
SPEC_PER_LAYER = (
    ["sim.dispatches", "sim.dispatches_per_op", "sim.ns_per_dispatch",
     "sim.callbacks_scheduled", "sim.callback_slots_created",
     "ntb.scratchpad_writes_per_op", "ntb.doorbells_per_op",
     "ntb.dma_descriptors", "ntb.dma_bytes", "ntb.pio_bytes",
     "pcie.link_bytes", "pcie.tlps", "pcie.tlp_replays", "pcie.link_util_max",
     "host.irq_raised", "host.irq_delivered", "host.irq_masked_latched",
     "host.arena_mib", "fabric.messages_forwarded", "fabric.bytes_forwarded",
     "shmem.frames_per_op", "shmem.credit_stalls", "shmem.credit_stall_ns",
     "shmem.delivery_acks", "shmem.retransmits",
     "shmem.barrier_latency_p50_us", "shmem.runtime_ctor_s",
     "shmem.runtime_dtor_s", "shm.fork_reap_s", "shm.child_cpu_us_per_op",
     "shm.vol_ctx_switches", "shm.invol_ctx_switches", "obs.report_s",
     "obs.trace_overhead"]
    + ["workload.%s.%s_us" % (f, s)
       for f in ("get", "put", "put_nbi", "put_signal")
       for s in ("p50", "p99", "p999", "max")]
    + ["obs.critical_path_ns." + k
       for k in ("op", "frame", "forward", "irq", "dma", "credit_stall")])


def fail(msg):
    print("FAIL: " + msg)
    return False


def check_run(workload, trace, declared):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = "%s --trace %d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout + proc.stderr)
        return fail("%s exited %d" % (where, proc.returncode))
    result = json.loads(lines[-1])
    ok = True
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        ok = fail("%s: result keys %s" % (where, sorted(result)))
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        ok = fail("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        ok = fail("%s: metric names differ from BENCHMARK.json: extra %s, "
                  "missing %s" % (where, sorted(set(metrics) - set(declared)),
                                  sorted(set(declared) - set(metrics))))
    human = "\n".join(lines[:-1])
    if "env: " not in human:
        ok = fail("%s: no environment block" % where)
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            ok = fail("%s: %s has unit %r, BENCHMARK.json says %r"
                      % (where, name, m["unit"], unit))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            ok = fail("%s: %s value %r" % (where, name, m["value"]))
        if not re.search(r"^\s+%s\s+\S+\s+%s$" % (re.escape(name),
                                                   re.escape(unit)),
                         human, re.M):
            ok = fail("%s: %s [%s] not printed" % (where, name, unit))
    print("%s: %s" % (where, "ok" if ok else "FAILED"), flush=True)
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
        readme = f.read()
    parts = readme.split("## Names not in BENCHMARK.json", 1)
    dropped = (set(re.findall(r"^\| `([^`]+)` \|", parts[1], re.M))
               if len(parts) == 2 else set())

    ok = True
    listed = ({w["name"] for w in bench["workloads"]}
              | {m["name"] for m in bench["end_to_end"]}
              | {m["name"] for m in bench["per_layer"]})
    for name in SPEC_WORKLOADS + SPEC_END_TO_END + SPEC_PER_LAYER:
        if name not in listed and name not in dropped:
            ok = fail("%s is neither in BENCHMARK.json nor in the README's "
                      "'Names not in BENCHMARK.json' table" % name)

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in SPEC_WORKLOADS:
        ok = check_run(w, 0, e2e) and ok
        ok = check_run(w, 1, layer) and ok
    print("smoke test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
