#!/usr/bin/env python3
"""The repo benchmark: host cost and simulated results of four dRAID workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the program's src/ plus bench/harness.cc and rep.cc)
into .bench_build/perfbench, then runs repetitions of one workload, each in
its own process, until --seconds have been spent (at least the MIN_*
counts below). Every repetition sets the system up afresh, so set-up time
is a median too.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (medians over untraced
repetitions); with --trace 1 they are the per-layer ones, from traced
repetitions that run alongside untraced ones. `attempted` and `failed`
sum every repetition's I/O ops and post-run check units.

`correct` is false if any op or check failed, if two repetitions of the
seed disagree on any simulated result or count (traced or not), or if a
traced repetition spent host time under an event label that no layer
claims. See perfbench/NOTES.md for the workloads and the label map.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REP = os.path.join(BUILD, "perfbench_rep")

WORKLOADS = ("read4k", "write128k_r6", "degraded_rebuild", "mixed16k_spdk")
# Fewest repetitions per invocation: untraced ones with --trace 0; with
# --trace 1, untraced (two, so they can be compared) and traced ones.
MIN_UNTRACED = 3
MIN_UNTRACED_WHEN_TRACING = 2
MIN_TRACED = 1
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_goodput_MBps": "MB/s",
    "sim_mean_us": "us",
    "sim_p99_us": "us",
}

PHASES = ("queue", "lock", "fabric", "nic", "cpu", "reduce", "ssd")

# Event label prefix -> layer (module). "host" and "srv" depend on the
# system: dRAID's host controller and server bdev are core; on the SPDK
# baseline the host side is baselines and the server side the NVMe-oF
# target in blockdev.
LABEL_LAYERS = {
    "fabric": "net",
    "nic": "net",
    "ssd": "nvme",
    "nvmf": "blockdev",
    "parity": "ec",
    "reduce": "ec",
    "hostraid": "baselines",
    "failure": "core",
    "cpu": "sim",
    "pipe": "sim",
}
SYSTEM_LABEL_LAYERS = {
    "dRAID": {"host": "core", "srv": "core"},
    "SPDK": {"host": "baselines", "srv": "blockdev"},
}
# An unmapped label costing more than this share of profiled wall time
# fails the traced run.
UNMAPPED_TOLERANCE = 0.001


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_rep(workload, seed, traced, extra=()):
    """One repetition in its own process: (result dict, peak RSS in MB)."""
    cmd = [REP, f"--workload={workload}", f"--seed={seed}"]
    if traced:
        cmd.append("--traced")
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    # ru_maxrss is in KiB on Linux.
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, usage.ru_maxrss / 1024.0


def layer_of(label, system):
    prefix = label.split(".", 1)[0]
    return SYSTEM_LABEL_LAYERS[system].get(prefix, LABEL_LAYERS.get(prefix))


def end_to_end(untraced, rss):
    det = untraced[0]["det"]
    return {
        "run_s": median([r["host"]["run_s"] for r in untraced]),
        "setup_s": median([r["host"]["assemble_s"] + r["host"]["preload_s"]
                           for r in untraced]),
        "peak_rss_mb": median(rss),
        "sim_goodput_MBps": det["sim_goodput_MBps"],
        "sim_mean_us": det["sim_mean_us"],
        "sim_p99_us": det["sim_p99_us"],
    }


def per_layer(untraced, traced):
    """Per-layer metrics: (metrics {name: (value, unit)}, problems).

    Host time per layer is a share of the profiled event time of the
    measured phase: a share stays comparable when the machine's speed
    drifts, and a layer a workload never enters reads 0 rather than a
    constant time.
    """
    problems = []
    det = untraced[0]["det"]
    system = traced[0]["system"]
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    shares = []
    for r in traced:
        prof, host = r["profile"], r["host"]
        wall = prof["wall_ns"]
        ns = dict.fromkeys(
            ("sim", "net", "nvme", "blockdev", "ec", "core", "baselines"), 0)
        for label, label_ns in prof["label_ns"].items():
            layer = layer_of(label, system)
            if layer is None:
                if label_ns > UNMAPPED_TOLERANCE * wall:
                    problems.append(f"label '{label}' maps to no layer "
                                    f"({label_ns} ns of {wall} ns)")
                continue
            ns[layer] += label_ns - prof["bench_ns_in_label"].get(label, 0)
        # The engine's own time is what no label accounts for.
        ns["sim"] += wall - sum(prof["label_ns"].values())
        ns["telemetry"] = host["tracer_self_ns"]
        ns["bench"] = host["bench_ns"]
        ns["submit"] = host["submit_ns"]
        shares.append({k: v / wall for k, v in ns.items()})

    def share(key):
        return median([x[key] for x in shares])

    def host(key):
        return median([r["host"][key] for r in traced])

    ops, events = det["ops"], det["sim.events"]
    put("sim.events", events, "count")
    put("sim.events_per_op", events / ops, "1/op")
    put("sim.host_ns_per_event",
        median([r["profile"]["wall_ns"] / events for r in traced]), "ns")
    put("sim.engine_share", share("sim"), "1")
    put("sim.host_cpu_busy_frac", det["sim.host_cpu_busy_frac"], "1")

    for name in ("net.host_nic_bytes_per_user_byte",
                 "net.target_nic_bytes_per_user_byte"):
        put(name, det[name], "B/B")
    put("net.host_nic_busy_frac", det["net.host_nic_busy_frac"], "1")
    put("net.host_share", share("net"), "1")

    for name in ("nvme.read_bytes_per_user_byte",
                 "nvme.write_bytes_per_user_byte"):
        put(name, det[name], "B/B")
    put("nvme.ssd_busy_frac_max", det["nvme.ssd_busy_frac_max"], "1")
    put("nvme.host_share", share("nvme"), "1")

    put("blockdev.store_mb", det["blockdev.store_mb"], "MB")
    put("blockdev.readsync_GBps",
        median([r["host"]["readsync_bytes"] / r["host"]["readsync_ns"]
                for r in traced]), "GB/s")
    put("blockdev.host_share", share("blockdev"), "1")

    put("ec.host_share", share("ec"), "1")
    put("ec.verify_GBps",
        median([r["host"]["codec_bytes"] / r["host"]["codec_ns"]
                for r in traced]), "GB/s")

    put("raid.lock_contended", det["raid.lock_contended"], "count")

    for layer, mine in (("core", system == "dRAID"),
                        ("baselines", system == "SPDK")):
        for counter in ("rmw_writes", "rcw_writes", "full_stripe_writes",
                        "degraded_reads", "retries"):
            put(f"{layer}.{counter}", det[counter] if mine else 0, "count")
        put(f"{layer}.submit_share", share("submit") if mine else 0, "1")
        put(f"{layer}.host_share", share(layer), "1")
    put("core.rebuild_MBps", det["rebuild_MBps"], "MB/s")

    # What the workload itself arms, so from the untraced repetitions.
    put("telemetry.retained_mb",
        untraced[0]["host"]["retained_bytes"] / 2**20, "MB")
    put("telemetry.spans_retained",
        untraced[0]["host"]["spans_retained"], "count")
    put("telemetry.analyze_s", host("analyze_s"), "s")
    put("telemetry.host_share", share("telemetry"), "1")

    put("setup.assemble_s",
        median([r["host"]["assemble_s"] for r in untraced + traced]), "s")
    put("setup.preload_s",
        median([r["host"]["preload_s"] for r in untraced + traced]), "s")

    for p in PHASES:
        put(f"phase.{p}_share", traced[0]["phase"][p], "1")

    put("bench.host_share", share("bench"), "1")
    put("trace.overhead_s",
        host("run_s") - median([r["host"]["run_s"] for r in untraced]), "s")
    # Share of the traced run_s that the profiled event time (every layer,
    # the engine and the benchmark's own callbacks) and, where it is part
    # of run_s, the critical-path analysis account for.
    put("trace.coverage",
        median([(r["profile"]["wall_ns"] * 1e-9 +
                 r["host"]["analyze_in_run_s"]) / r["host"]["run_s"]
                for r in traced]), "1")
    return m, problems


def check(untraced, traced):
    """Problems with correctness and determinism across repetitions."""
    problems = []
    first = untraced[0]
    for i, r in enumerate(untraced + traced):
        d = r["det"]
        if d["failed_ops"] or d["check_failed"]:
            problems.append(f"repetition {i}: {d['failed_ops']} failed ops, "
                            f"{d['check_failed']} failed checks")
        if r["det"] != first["det"]:
            diff = sorted(k for k in d if d[k] != first["det"].get(k))
            problems.append(f"repetition {i} differs from the first in {diff}")
    phases = [r["phase"] for r in untraced + traced if "phase" in r]
    if any(p != phases[0] for p in phases):
        problems.append("critical-path shares differ between repetitions")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()

    start = time.monotonic()
    untraced, traced, rss, walls = [], [], [], []
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        t0 = time.monotonic()
        result, peak = run_rep(args.workload, args.seed, want_traced)
        walls.append(time.monotonic() - t0)
        (traced if want_traced else untraced).append(result)
        if not want_traced:
            rss.append(peak)
        if args.trace == 0:
            enough = len(untraced) >= MIN_UNTRACED
        else:
            enough = (len(untraced) >= MIN_UNTRACED_WHEN_TRACING and
                      len(traced) >= MIN_TRACED)
        if enough and time.monotonic() + max(walls) > start + args.seconds:
            break
    log(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced "
        f"repetitions in {time.monotonic() - start:.1f} s")

    problems = check(untraced, traced)
    if args.trace == 0:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(untraced, rss).items()}
    else:
        metrics, more = per_layer(untraced, traced)
        problems += more
    for p in problems:
        log(f"FAIL: {p}")

    reps = untraced + traced
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["det"]["ops"] + r["det"]["check_units"]
                         for r in reps),
        "failed": sum(r["det"]["failed_ops"] + r["det"]["check_failed"]
                      for r in reps),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
