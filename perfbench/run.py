#!/usr/bin/env python3
"""The repository benchmark: builds ntbperf, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ and every
raw artifact (ntbperf results, the causal trace, tracecheck output) to
.bench_out/<workload>-seed<N>-trace<0|1>/. Human-readable lines come first
on stdout; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with all recording off; with --trace 1 they are its per-layer
metrics, which adds a short run with causal recording on. The exit code is
non-zero when the build fails, a phase crashes, or any correctness check
fails (the result line is still printed in the last case). See
perfbench/README.md for the workloads, metrics and clocks.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
NTBPERF = os.path.join(BUILD_DIR, "ntbperf")
TRACECHECK = os.path.join(BUILD_DIR, "tracecheck", "tracecheck")

# Run lengths. "full" is repeated for the whole --seconds budget; "small"
# is the traced run and its untraced twin, kept short because the causal
# critical-path report is quadratic in the number of spans.
SIZES = {
    "sim_kv_ring16": {"full": 2048, "small": 128, "tiny": 8},
    "sim_allreduce_torus16": {"full": 256, "small": 8, "tiny": 2},
    "shm_kv4": {"full": 1 << 20, "small": 1 << 16, "tiny": 256},
}
MIN_REPEATS = 4
CRITICAL_PATH_KINDS = ["op", "frame", "forward", "irq", "dma", "credit_stall"]
KV_FAMILIES = ["get", "put", "put_nbi", "put_signal"]
PHASE_TIMEOUT_S = 150


def log(msg):
    print(msg, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd in its own process group; kills the whole group on timeout
    so no forked PE outlives the benchmark. Returns (code, combined output)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return 124, out + "\n[timed out after %ds]" % timeout
    return proc.returncode, out


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, out = run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                               "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                              600)
        if code != 0:
            sys.stderr.write(out)
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    code, out = run_quiet(["cmake", "--build", BUILD_DIR, "-j",
                           str(os.cpu_count() or 1)], 850)
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit("perfbench: build failed")


def ntbperf(out_dir, tag, workload, seed, size, seconds, min_repeats,
            record=False):
    result = os.path.join(out_dir, tag + ".json")
    cmd = [NTBPERF, "--workload", workload, "--seed", str(seed), "--size",
           str(size), "--seconds", str(seconds), "--min-repeats",
           str(min_repeats), "--record", "1" if record else "0",
           "--out", result]
    trace = None
    if record and workload.startswith("sim_"):
        trace = os.path.join(out_dir, tag + ".trace.json")
        cmd += ["--trace-out", trace]
    code, out = run_quiet(cmd, PHASE_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit("perfbench: ntbperf phase '%s' failed (exit %d)"
                         % (tag, code))
    with open(result) as f:
        doc = json.load(f)
    doc["trace_path"] = trace
    return doc


class Checks:
    """Correctness checks; every breach fails the run and counts the
    requests of the offending repeat as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.breaches = []

    def breach(self, what, requests):
        self.breaches.append(what)
        self.failed += max(requests, 1)

    def repeats(self, phase, doc, exact):
        reps = doc["repeats"]
        first = reps[0]["model"]
        for i, rep in enumerate(reps):
            m = rep["model"]
            issued = m["issued"]
            self.attempted += issued
            self.failed += (issued - m["completed"]) + m["verify_errors"]
            where = "%s repeat %d" % (phase, i)
            if m["completed"] != issued:
                self.breaches.append("%s: completed %d of %d issued"
                                     % (where, m["completed"], issued))
            if m["verify_errors"]:
                self.breaches.append("%s: %d verify errors"
                                     % (where, m["verify_errors"]))
            if m["signals_received"] != m["signals_sent"]:
                self.breach("%s: %d signals sent, %d received"
                            % (where, m["signals_sent"],
                               m["signals_received"]), issued)
            if m["counters"]["retransmits"]:
                self.breach("%s: %d retransmits on a fault-free run"
                            % (where, m["counters"]["retransmits"]), issued)
            if exact and m != first:
                self.breach("%s: model results differ from repeat 0 "
                            "(digest %s vs %s)" % (where, m["schedule_digest"],
                                                   first["schedule_digest"]),
                            issued)

    def twins(self, untraced, traced):
        a = dict(untraced["repeats"][0]["model"])
        b = dict(traced["repeats"][0]["model"])
        a.pop("critical_path_ns")
        b.pop("critical_path_ns")
        if a != b:
            diff = sorted(k for k in a if a[k] != b.get(k))
            self.breach("traced run differs from its untraced twin in %s "
                        "(digest %s vs %s)" % (diff, b["schedule_digest"],
                                               a["schedule_digest"]),
                        b["issued"])

    def tracecheck(self, trace_path, out_dir):
        code, out = run_quiet([TRACECHECK, trace_path], PHASE_TIMEOUT_S)
        with open(os.path.join(out_dir, "tracecheck.txt"), "w") as f:
            f.write(out)
        log("tracecheck: " + out.strip().splitlines()[-1] if out.strip()
            else "tracecheck: (no output)")
        if code != 0:
            self.breach("tracecheck failed (exit %d): %s"
                        % (code, out.strip()[:500]), 1)

    @property
    def correct(self):
        return not self.breaches and self.failed == 0


def env_block(doc, seed):
    env = dict(doc["env"])
    env["seed"] = seed
    env["python"] = platform.python_version()
    env["git_sha"] = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        code, out = run_quiet(["git", "rev-parse", "HEAD"], 30)
        if code == 0:
            env["git_sha"] = out.strip()
    return env


def timed(doc):
    """Repeats whose timings count: the first one only warms the host up
    (page cache, CPU clocks, allocator) unless it is the only one."""
    reps = doc["repeats"]
    return reps[1:] if len(reps) > 1 else reps


def end_to_end(full):
    reps = timed(full)
    models = [r["model"] for r in reps]
    # Throughputs pool the whole timed run phase: the host's speed drifts
    # between slow and fast spells, and pooling weighs each spell by its
    # length where a median of per-repeat rates jumps between them.
    ops = sum(m["completed"] for m in models)
    goodput = ops / (sum(m["elapsed_ns"] for m in models) * 1e-9)
    # Virtual-clock figures are exact per seed (checked); on shm the
    # scenario clock is the wall clock, so latencies are medians over repeats.
    p99 = median([m["latency_ns"]["total"]["p99"] for m in models]) / 1e3
    rss = full["peak_rss_kib"]
    return {
        "ops_per_s": (ops / sum(r["run_s"] for r in reps), "1/s"),
        "setup_s": (median([r["ctor_s"] for r in reps]), "s"),
        "peak_rss_mib": ((rss["self"] + rss["children"]) / 1024.0, "MiB"),
        "goodput_per_s": (goodput, "1/clk_s"),
        "lat_p99_us": (p99, "clk_us"),
    }


def per_layer(full, small, traced):
    reps = timed(full)
    m = reps[0]["model"]
    c = m["counters"]
    env = full["env"]
    ops = m["completed"]
    sim = env["backend"] != "shm"
    run_s = median([r["run_s"] for r in reps])
    per_op = lambda v: v / ops
    if sim:
        arena = env["hosts"] * env["host_memory_bytes"]
    else:
        arena = env["pes"] * env["symheap_max_bytes"]
    out = {
        "sim.dispatches": (m["dispatches"], "count"),
        "sim.dispatches_per_op": (per_op(m["dispatches"]), "dispatch/op"),
        "sim.ns_per_dispatch": (run_s * 1e9 / m["dispatches"]
                                if m["dispatches"] else 0.0, "ns/dispatch"),
        "sim.callbacks_scheduled": (m["callbacks_scheduled"], "count"),
        "sim.callback_slots_created": (m["callback_slots_created"], "count"),
        "ntb.scratchpad_writes_per_op": (per_op(c["scratchpad_writes"]),
                                         "write/op"),
        "ntb.doorbells_per_op": (per_op(c["doorbells"]), "doorbell/op"),
        "ntb.dma_descriptors": (c["dma_descriptors"], "count"),
        "ntb.dma_bytes": (c["dma_bytes"], "B"),
        "ntb.pio_bytes": (c["pio_bytes"], "B"),
        "pcie.link_bytes": (c["link_bytes"], "B"),
        "pcie.tlps": (c["tlps"], "count"),
        "pcie.tlp_replays": (c["tlp_replays"], "count"),
        "pcie.link_util_max": (m["link_util_max"], "ratio"),
        "host.irq_raised": (c["irq_raised"], "count"),
        "host.irq_delivered": (c["irq_delivered"], "count"),
        "host.irq_masked_latched": (c["irq_masked_latched"], "count"),
        "host.arena_mib": (arena / 1048576.0, "MiB"),
        "fabric.messages_forwarded": (c["messages_forwarded"], "count"),
        "fabric.bytes_forwarded": (c["bytes_forwarded"], "B"),
        "shmem.frames_per_op": (per_op(c["frames_sent"]), "frame/op"),
        "shmem.credit_stalls": (c["credit_stalls"], "count"),
        "shmem.credit_stall_ns": (c["credit_stall_ns"], "vns"),
        "shmem.delivery_acks": (c["delivery_acks"], "count"),
        "shmem.retransmits": (c["retransmits"], "count"),
        "shmem.barrier_latency_p50_us": (m["barrier_latency_p50_ns"] / 1e3,
                                         "vus"),
        "shmem.runtime_ctor_s": (median([r["ctor_s"] for r in reps]), "s"),
        "shmem.runtime_dtor_s": (median([r["dtor_s"] for r in reps]), "s"),
    }
    lat = m["latency_ns"]
    if not sim:  # wall clock: medians over repeats
        lat = {fam: {k: median([r["model"]["latency_ns"][fam][k]
                                for r in reps])
                     for k in ("p50", "p99", "p999", "max")}
               for fam in lat}
    for fam in ["total"] + KV_FAMILIES:
        for k in ("p50", "p999", "max") if fam == "total" else (
                "p50", "p99", "p999", "max"):
            v = lat[fam][k] / 1e3 if fam in lat else 0.0
            out["workload.%s.%s_us" % (fam, k)] = (v, "clk_us")
    fork_reap = [r["run_s"] - r["model"]["elapsed_ns"] * 1e-9 for r in reps]
    out.update({
        "shm.fork_reap_s": (0.0 if sim else median(fork_reap), "s/run"),
        "shm.child_cpu_us_per_op": (median([r["child_cpu_s"] for r in reps])
                                    * 1e6 / ops, "us/op"),
        "shm.vol_ctx_switches": (median([r["child_nvcsw"] for r in reps]),
                                 "count"),
        "shm.invol_ctx_switches": (median([r["child_nivcsw"] for r in reps]),
                                   "count"),
        "shm.futex_sleeps": (c["shm_doorbell_sleeps"], "count"),
    })
    t = traced["repeats"][0]
    cp = t["model"]["critical_path_ns"]
    for kind in CRITICAL_PATH_KINDS:
        out["obs.critical_path_ns." + kind] = (cp.get(kind, 0), "vns")
    out["obs.report_s"] = (t["report_s"], "s")
    u = small["repeats"][0]
    out["obs.trace_overhead"] = (
        (t["model"]["completed"] / t["run_s"]) /
        (u["model"]["completed"] / u["run_s"]), "ratio")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: every phase runs a few requests")
    args = ap.parse_args()

    build()
    sizes = SIZES[args.workload]
    out_dir = os.path.join(OUT_ROOT, "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    full_size = sizes["tiny"] if args.tiny else sizes["full"]
    small_size = sizes["tiny"] if args.tiny else sizes["small"]
    sim = args.workload.startswith("sim_")

    checks = Checks()
    full = ntbperf(out_dir, "untraced", args.workload, args.seed, full_size,
                   args.seconds, MIN_REPEATS)
    checks.repeats("untraced", full, exact=sim)
    if args.trace:
        small = ntbperf(out_dir, "untraced_small", args.workload, args.seed,
                        small_size, 0, 1)
        traced = ntbperf(out_dir, "traced_small", args.workload, args.seed,
                         small_size, 0, 1, record=True)
        checks.repeats("untraced_small", small, exact=sim)
        checks.repeats("traced_small", traced, exact=sim)
        if sim:
            checks.twins(small, traced)
            checks.tracecheck(traced["trace_path"], out_dir)
        metrics = per_layer(full, small, traced)
    else:
        metrics = end_to_end(full)

    env = env_block(full, args.seed)
    log("env: " + json.dumps(env, sort_keys=True))
    log("workload %s: %d repeats of %d %s, own clock = %s"
        % (args.workload, len(full["repeats"]), full_size,
           "steps" if "allreduce" in args.workload else "requests/PE",
           full["env"]["clock"]))
    for name, (value, unit) in metrics.items():
        log("  %-34s %18.6f %s" % (name, value, unit))
    fail_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    log("fail_frac %.6g (%d failed of %d attempted)"
        % (fail_frac, checks.failed, checks.attempted))
    for b in checks.breaches:
        log("CHECK FAILED: " + b)
    with open(os.path.join(out_dir, "env.json"), "w") as f:
        json.dump(env, f, indent=2, sort_keys=True)

    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
