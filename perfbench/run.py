#!/usr/bin/env python3
"""FNCC simulator benchmark: two fat-tree workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree. The first run builds fncc_run and
perfbench_replica from source (Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Load model: a closed loop, one process
running one point at a time.

--trace 0 runs the workload's point through fncc_run (the user path), with
repetitions until --seconds have passed, plus set-up probes (the same point
cut to 1 us of simulated time), and reports the end-to-end metrics.

--trace 1 alternates an untraced fncc_run point with a traced replica of the
runner (replica.cpp) for --seconds and reports the per-layer metrics. The
replica must reproduce the untraced run's event count, completed flows and
FCT CSV digest exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it carries provenance. Exit status is 0 only when
every correctness check passed. See perfbench/README.md for the metrics.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload: a frozen spec copy under perfbench/workloads, the overrides
# that pick its point, the fncc_run thread budget, the overrides that cut it
# to set-up only, and the flow count every run must complete.
WORKLOADS = {
    "k16_perm_pdes": {
        "spec": "fat_tree_k16.exp",
        "threads": 2,
        "overrides": ["scenario.exec_domains=auto"],
        "setup": ["run.duration_us=1"],
        "flows": 1024,
    },
    "k8_hadoop_streamed": {
        "spec": "fig15_hadoop.exp",
        "threads": 1,
        "overrides": ["sweep.mode=FNCC", "workload.num_flows=20000",
                      "run.launch_window_us=100", "run.monitor=false",
                      "output.stream_fct=true", "scenario.exec_domains=1"],
        "setup": ["run.max_sim_ms=0.001"],
        "flows": 20000,
    },
}

# One seed's point puts few flows beyond p99 (about 10 on k16_perm_pdes),
# and on k8_hadoop_streamed the tail rides on a few incast bursts, so the
# p99 slowdown moves by 20% or more from seed to seed. Each run pools
# SUBSEEDS scenario seeds derived from --seed to keep the simulated metrics
# steady: with 3, the p99 of k8_hadoop_streamed still spread by 0.135 (IQR
# over median, ten runs).
SUBSEEDS = 9
WARMUP = 1             # untimed leading points (and set-up probes) per run
MIN_SETUP_PROBES = 7   # setup_s is the median of at least this many probes
PROCESS_TIMEOUT_S = 120
LAYERS = ["harness", "net", "workload", "transport", "sim", "exec", "stats"]


class BenchError(Exception):
    pass


class Checks:
    """Named correctness checks; every failure is counted and reported."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, log_path, timeout=None):
    """Runs cmd with stdout+stderr to log_path; returns (status, wall_s,
    peak_rss_mib). Waits for the child in every case."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill) if timeout else None
        if timer:
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer:
                timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tail(path, lines=20):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build(bdir):
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "fncc_run.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found under {ROOT}: perfbench must "
                             "run from the root of the FNCC source tree")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        status, _, _ = run_logged(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            log)
        if status != 0:
            raise BenchError("cmake configure failed:\n" + tail(log))
    status, _, _ = run_logged(
        ["cmake", "--build", bdir, "--target", "fncc_run", "perfbench_replica",
         "-j", str(os.cpu_count() or 1)], log)
    if status != 0:
        raise BenchError("build failed:\n" + tail(log))
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        cache_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if cache_type != "Release":
        raise BenchError(f"refusing to benchmark a '{cache_type}' build; "
                         f"delete {bdir} to rebuild as Release")


def provenance(bdir, args):
    out = subprocess.run([os.path.join(bdir, "perfbench_replica"),
                          "provenance"], capture_output=True, text=True,
                         check=True, timeout=30).stdout
    prov = json.loads(out)
    if prov["build_type"] != "Release":
        raise BenchError(f"replica reports a '{prov['build_type']}' build")
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip()
    except OSError:
        commit = ""
    prov.update({
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    return prov


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names its
    code even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "tools", os.path.basename(HERE)]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def point_args(wl, seed, out_dir, setup=False):
    args = [os.path.join(HERE, "workloads", wl["spec"])] + wl["overrides"]
    if setup:
        args += wl["setup"]
    return args + [f"scenario.seed={seed}", f"output.dir={out_dir}",
                   "output.fct_csv=fct.csv", "output.manifest=manifest.json"]


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_fncc(bdir, wl, seed, out_dir, setup=False):
    """One fncc_run point: wall, peak RSS, manifest counters, CSV digest."""
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "stdout.log")
    cmd = [os.path.join(bdir, "fncc", "fncc_run"), "--threads",
           str(wl["threads"])] + point_args(wl, seed, out_dir, setup)
    status, wall, rss = run_logged(cmd, log, timeout=PROCESS_TIMEOUT_S)
    if status != 0:
        raise BenchError(f"fncc_run exited {status}:\n" + tail(log))
    with open(os.path.join(out_dir, "manifest.json")) as f:
        point = json.load(f)["points"][0]
    csv_path = os.path.join(out_dir, "fct.csv")
    return {"wall": wall, "rss": rss, "point": point, "csv": csv_path,
            "digest": file_digest(csv_path)}


def run_replica(bdir, wl, seed, out_dir, point_id):
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "stdout.log")
    trace_path = os.path.join(out_dir, "trace.json")
    cmd = [os.path.join(bdir, "perfbench_replica"), "trace", "--threads",
           str(wl["threads"]), "--trace-out", trace_path, "--point-id",
           point_id] + point_args(wl, seed, out_dir)
    status, wall, rss = run_logged(cmd, log, timeout=PROCESS_TIMEOUT_S)
    if status != 0:
        raise BenchError(f"perfbench_replica exited {status}:\n" + tail(log))
    with open(log) as f:
        counts = json.loads(f.read().strip().splitlines()[-1])
    csv_path = os.path.join(out_dir, "fct.csv")
    return {"wall": wall, "rss": rss, "counts": counts, "trace": trace_path,
            "csv": csv_path, "digest": file_digest(csv_path)}


def read_slowdowns(csv_path):
    with open(csv_path, newline="") as f:
        return sorted(float(row["slowdown"]) for row in csv.DictReader(f))


def nearest_rank(sorted_values, pct):
    """The exact p-th percentile by nearest rank: at p99 of 1000 values, 10
    values lie beyond it."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def check_point(checks, wl, run, slowdowns, tag):
    """The per-point output checks: every flow completes, PFC kept the
    fabric lossless, every slowdown >= 1, one CSV row per flow."""
    p = run["point"] if "point" in run else run["counts"]
    want = wl["flows"]
    checks.expect(p["flows_total"] == want,
                  f"{tag}: {p['flows_total']} flows attempted, want {want}")
    checks.expect(p["flows_completed"] == p["flows_total"],
                  f"{tag}: {p['flows_completed']}/{p['flows_total']} flows "
                  "completed")
    checks.expect(p["drops"] == 0, f"{tag}: {p['drops']} drops (PFC must be "
                  "lossless)")
    checks.expect(len(slowdowns) == want,
                  f"{tag}: {len(slowdowns)} FCT rows, want {want}")
    checks.expect(bool(slowdowns) and slowdowns[0] >= 1.0,
                  f"{tag}: slowdown below 1 "
                  f"({slowdowns[0] if slowdowns else 'no rows'})")
    return want - min(p["flows_completed"], want)


def scenario_seeds(seed):
    """The scenario.seed values one run cycles through: SUBSEEDS per
    benchmark seed, disjoint across benchmark seeds."""
    return [SUBSEEDS * seed + j for j in range(SUBSEEDS)]


def measure_end_to_end(bdir, wl, args, run_dir, checks):
    """Full points cycle through the scenario seeds until --seconds have
    passed, each seed at least twice for the repeat check. A set-up probe
    follows each point, so the probes spread over the same stretch of time.
    The first point and the first probe warm the page cache and are checked
    but not timed."""
    seeds = scenario_seeds(args.seed)
    runs, setup_walls, first, incomplete = [], [], {}, 0
    setup_dir = os.path.join(run_dir, "setup")
    start = time.perf_counter()
    while len(runs) < 2 * len(seeds) or \
            time.perf_counter() - start < args.seconds:
        seed = seeds[len(runs) % len(seeds)]
        r = run_fncc(bdir, wl, seed, os.path.join(run_dir, "full"))
        r["seed"] = seed
        tag = f"rep {len(runs)} (scenario.seed={seed})"
        if seed not in first:
            first[seed] = dict(r, slowdowns=read_slowdowns(r["csv"]))
        else:
            checks.expect(r["digest"] == first[seed]["digest"],
                          f"{tag}: FCT digest differs from the first run at "
                          "this seed")
        incomplete += check_point(checks, wl, r, first[seed]["slowdowns"], tag)
        runs.append(r)
        setup_walls.append(run_fncc(bdir, wl, seed, setup_dir,
                                    setup=True)["wall"])
    while len(setup_walls) < WARMUP + MIN_SETUP_PROBES:
        seed = seeds[len(setup_walls) % len(seeds)]
        setup_walls.append(run_fncc(bdir, wl, seed, setup_dir,
                                    setup=True)["wall"])
    timed, setup_walls = runs[WARMUP:], setup_walls[WARMUP:]
    # The seeds' points differ in work (k8_hadoop_streamed by a few percent
    # in events), so each point's wall is scaled to the mean event count of
    # the run's seeds before the median is taken over all timed points.
    events = {seed: first[seed]["point"]["events_processed"] for seed in seeds}
    mean_events = statistics.fmean(events.values())
    wall = statistics.median(r["wall"] * mean_events / events[r["seed"]]
                             for r in timed)
    slowdowns = sorted(x for f in first.values() for x in f["slowdowns"])
    attempted = wl["flows"] * len(runs)
    failed = incomplete + len(checks.failures)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "events_per_s": mean_events / wall,
        "peak_rss_mib": statistics.median(r["rss"] for r in timed),
        "flows_ok_ratio": 1.0 - min(failed, attempted) / attempted,
        "slowdown_p50": nearest_rank(slowdowns, 50),
        "slowdown_p99": nearest_rank(slowdowns, 99),
    }
    info = {"reps": len(runs), "setup_probes": len(setup_walls),
            "scenario_seeds": seeds,
            "events_processed": list(events.values()),
            "pause_frames": [first[s]["point"]["pause_frames"] for s in seeds],
            "fct_digests": [first[s]["digest"] for s in seeds],
            "warmup": WARMUP, "walls": [r["wall"] for r in timed],
            "timed_seeds": [r["seed"] for r in timed],
            "setup_walls": setup_walls}
    return metrics, attempted, failed, info


def layer_times(trace_path):
    """Per span name: total seconds. Per layer: busy seconds (spans not
    nested in a span of the same layer) and self seconds (span duration
    minus the time its child spans cover)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_name, child_time = {}, [0.0] * len(events)
    for ev in events:
        parent = ev["args"]["parent"]
        if parent >= 0:
            child_time[parent] += ev["dur"]
    busy = {layer: 0.0 for layer in LAYERS}
    self_time = {layer: 0.0 for layer in LAYERS}
    self_by_name = {}
    for i, ev in enumerate(events):
        name, layer = ev["name"], ev["cat"]
        by_name[name] = by_name.get(name, 0.0) + ev["dur"] / 1e6
        own = (ev["dur"] - child_time[i]) / 1e6
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        self_time[layer] = self_time.get(layer, 0.0) + own
        parent, nested = ev["args"]["parent"], False
        while parent >= 0:
            if events[parent]["cat"] == layer:
                nested = True
                break
            parent = events[parent]["args"]["parent"]
        if not nested:
            busy[layer] = busy.get(layer, 0.0) + ev["dur"] / 1e6
    return by_name, self_by_name, busy, self_time


def per_layer_metrics(untraced, traced, route):
    c = traced["counts"]
    by_name, self_by_name, busy, self_time = layer_times(traced["trace"])
    t = lambda name: by_name.get(name, 0.0)  # noqa: E731
    lane_events = c["lane_events"]
    total_events = sum(lane_events)
    max_lane = max(lane_events) if lane_events else 0
    m = {
        "harness.resolve_s": t("harness.resolve"),
        "net.build_s": t("net.build"),
        "net.routes_s": t("net.routes"),
        "net.seal_s": t("net.seal"),
        "net.route_entries": c["route_entries"],
        "net.route_ns_per_entry": t("net.routes") * 1e9 / c["route_entries"],
        "net.route_cost_ratio_k16_k8": route["ratio_k16_k8"],
        "net.pool_acquires": c["pool_acquired"],
        "net.pool_reuse_ratio": (1.0 - c["pool_created"] / c["pool_acquired"]
                                 if c["pool_acquired"] else 0.0),
        "net.ecn_marks": c["ecn_marks"],
        "net.tx_bytes": c["tx_bytes"],
        "net.paused_us": c["paused_us"],
        "net.pause_frames": c["pause_frames"],
        "workload.generate_s": t("workload.generate"),
        "workload.pull_s": t("workload.pull"),
        "transport.launch_s": t("transport.launch"),
        "transport.release_s": t("transport.release"),
        "transport.retransmits": c["retransmits"],
        "transport.out_of_order": c["out_of_order"],
        "transport.stale_flow_packets": c["stale_flow_packets"],
        "transport.asymmetric_acks": c["asymmetric_acks"],
        "cc.lhcs_triggers": c["lhcs_triggers"],
        "sim.run_s": t("sim.run_until"),
        "sim.events": c["events_processed"],
        "sim.ns_per_event": (t("sim.run_until") * 1e9 / c["events_processed"]
                             if c["events_processed"] else 0.0),
        "exec.lanes": c["lanes"],
        "exec.windows": c["windows"],
        "exec.events_per_window": (total_events / c["windows"]
                                   if c["windows"] else 0.0),
        "exec.critical_lane_share": (max_lane / total_events
                                     if total_events else 0.0),
        "exec.balance_bound": total_events / max_lane if max_lane else 0.0,
        "exec.steals": c["steals"],
        "exec.barrier_spins": c["barrier_spins"],
        "exec.barrier_sleeps": c["barrier_sleeps"],
        "stats.drain_s": self_by_name.get("stats.drain", 0.0),
        "stats.output_s": t("stats.output"),
        "stats.rows": c["flows_completed"],
        "trace.overhead_s": traced["wall"] - untraced["wall"],
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_time[layer]
    return m


def measure_per_layer(bdir, wl, args, run_dir, checks):
    """Untraced fncc_run and traced replica points, in pairs cycling through
    the scenario seeds until --seconds have passed. Each pair must agree
    exactly; the per-layer metrics are medians over the pairs."""
    os.makedirs(run_dir, exist_ok=True)
    log = os.path.join(run_dir, "route_ratio.log")
    status, _, _ = run_logged([os.path.join(bdir, "perfbench_replica"),
                               "route-ratio"], log, timeout=PROCESS_TIMEOUT_S)
    if status != 0:
        raise BenchError("route-ratio probe failed:\n" + tail(log))
    with open(log) as f:
        route = json.loads(f.read().strip().splitlines()[-1])
    seeds = scenario_seeds(args.seed)
    samples, digests, traces, incomplete = [], {}, {}, 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        pair = len(samples)
        seed = seeds[pair % len(seeds)]
        tag = f"pair {pair} (scenario.seed={seed})"
        untraced = run_fncc(bdir, wl, seed, os.path.join(run_dir, "full"))
        traced = run_replica(bdir, wl, seed,
                             os.path.join(run_dir, f"traced-{seed}"),
                             f"{args.workload}/seed{seed}/pair{pair}")
        incomplete += check_point(checks, wl, untraced,
                                  read_slowdowns(untraced["csv"]),
                                  f"{tag} untraced")
        incomplete += check_point(checks, wl, traced,
                                  read_slowdowns(traced["csv"]),
                                  f"{tag} traced")
        u, c = untraced["point"], traced["counts"]
        for key in ("events_processed", "flows_completed", "pause_frames"):
            checks.expect(c[key] == u[key], f"{tag}: replica {key} "
                          f"{c[key]} != untraced {u[key]}")
        checks.expect(traced["digest"] == untraced["digest"],
                      f"{tag}: replica FCT digest differs from untraced")
        first_digest = digests.setdefault(seed, untraced["digest"])
        checks.expect(untraced["digest"] == first_digest,
                      f"{tag}: FCT digest differs from the first run at this "
                      "seed")
        traces[seed] = os.path.relpath(traced["trace"], ROOT)
        samples.append(per_layer_metrics(untraced, traced, route))
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    attempted = 2 * wl["flows"] * len(samples)
    failed = incomplete + len(checks.failures)
    info = {"pairs": len(samples), "scenario_seeds": seeds,
            "fct_digests": digests, "trace_files": traces, "route": route}
    return metrics, attempted, failed, info


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = WORKLOADS[args.workload]
    bdir = build_dir()
    checks = Checks()
    try:
        build(bdir)
        prov = provenance(bdir, args)
        run_dir = os.path.join(bdir, "runs", f"{args.workload}-seed{args.seed}")
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, attempted, failed, info = measure(bdir, wl, args, run_dir,
                                                   checks)
        units = declared_units(args.trace)
        if set(units) != set(metrics):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units) ^ set(metrics))}")
    except Exception as e:  # noqa: BLE001 - any failure fails the run
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for name, value in metrics.items():
        print(f"{args.workload:20s} {name:32s} {value:16.6g} {units[name]}")
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"provenance": prov, "info": info,
              "check_failures": checks.failures, "result": result}
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": prov, "info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
