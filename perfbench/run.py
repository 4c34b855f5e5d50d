#!/usr/bin/env python3
"""GrOUT benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Builds perfbench/ (a CMake project that compiles the library from ../src in
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload for --seconds of wall time, checks the outputs and prints a
human-readable report followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
README.md for definitions). Exits non-zero, without a result line, when the
build or a run fails, and with correct=false and exit code 1 when an output
check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("paper-oversub", "cg-longrun", "serve-soak", "serve-shared-rw")

# (name, unit, better) -- BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("sim_makespan_s", "sim_s", "lower"),
    ("speedup_vs_1node", "x", "higher"),
    ("goodput_pps", "1/sim_s", "higher"),
    ("latency_p50_s", "sim_s", "lower"),
    ("latency_p99_s", "sim_s", "lower"),
    ("goodput_tail_ratio", "ratio", "higher"),
    ("max_rate_under_slo", "1/sim_s", "higher"),
    ("completed_frac", "ratio", "higher"),
    ("host_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

PER_LAYER = [
    ("core.launch_us_p50", "us", "lower"),
    ("core.launch_us_p99", "us", "lower"),
    ("core.launch_n", "count", "lower"),
    ("dag.add_us_p50", "us", "lower"),
    ("dag.add_us_p99", "us", "lower"),
    ("core.policy_decision_us_p50", "us", "lower"),
    ("core.policy_decision_us_p99", "us", "lower"),
    ("core.sync_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("runtime.local_dag_vertices", "count", "lower"),
    ("runtime.local_dag_edges", "count", "lower"),
    ("dag.global_vertices", "count", "lower"),
    ("dag.global_edges", "count", "lower"),
    ("core.directory_arrays", "count", "lower"),
    ("core.governor_peak_resident_gib", "GiB", "lower"),
    ("serve.queue_wait_s_mean", "sim_s", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.starvation_max", "count", "lower"),
    ("core.governor_evictions", "count", "lower"),
    ("core.governor_refetch_frac", "ratio", "lower"),
    ("core.governor_spills", "count", "lower"),
    ("core.governor_dispatch_stalls", "count", "lower"),
    ("core.directory_invalidations", "count", "lower"),
    ("core.directory_ownership_transfers", "count", "lower"),
    ("core.directory_refetch_gib", "GiB", "lower"),
    ("uvm.faults", "count", "lower"),
    ("uvm.fetched_gib", "GiB", "lower"),
    ("uvm.written_back_gib", "GiB", "lower"),
    ("uvm.evictions", "count", "lower"),
    ("gpusim.kernels", "count", "lower"),
    ("uvm.storm_kernel_frac", "ratio", "lower"),
    ("net.transfers", "count", "lower"),
    ("net.bytes_gib", "GiB", "lower"),
    ("net.control_sends", "count", "lower"),
    ("core.bytes_planned_gib", "GiB", "lower"),
    ("core.p2p_sends", "count", "lower"),
    ("core.policy_exploration_frac", "ratio", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("dag.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Figure 7 peak speedups of the paper (EXPERIMENTS.md); MV is a lower bound
# because the paper's single node ran out of time.
PAPER_FIG7 = {"MLE": (1.64, False), "CG": (7.45, False), "MV": (24.42, True)}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build --------------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("GrOUT sources not found beside perfbench/ (need ../src)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, 300)
    run_quiet(["cmake", "--build", out, "--target", "grout_perfbench", "-j", jobs], 850)
    exe = os.path.join(out, "grout_perfbench")
    if not os.path.exists(exe):
        raise BenchError("build produced no grout_perfbench binary")
    return exe


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10, check=False)
    except OSError:
        return "unknown"
    sha = proc.stdout.decode().strip()
    return sha if proc.returncode == 0 and sha else "unknown (not a git checkout)"


# -- end-to-end metrics -------------------------------------------------------


def batch_end_to_end(raw, report):
    """paper-oversub / cg-longrun: a request is one CE the host program
    issues; censored runs count at the cap, as in the paper."""
    cells = raw["batch"]["cells"]
    cap = raw["batch"]["cap_s"]
    grout, ratios, latencies, done_norm = [], [], [], []
    attempted = failed = completed = 0
    for c in cells:
        t = c["makespan_s"] if c["completed"] else cap
        base = c["baseline_s"] if c["baseline_completed"] else cap
        grout.append(t)
        ratios.append(base / t)
        latencies += c["ce_latency_s"]
        # Each run's completions placed on [first, last completion] -> [0, 1],
        # so runs of different lengths pool into one series.
        done = c["ce_done_s"]
        if len(done) > 1 and max(done) > min(done):
            lo, hi = min(done), max(done)
            done_norm += [(d - lo) / (hi - lo) for d in done]
        attempted += c["ces"]
        completed += len(c["ce_latency_s"])
        if not c["completed"] and not c["censored_known"]:
            failed += c["ces"] - len(c["ce_latency_s"])
        if not c["completed"] or not c["baseline_completed"]:
            report.append("  censored at the %.0f s cap: %s%s%s" % (
                cap, c["name"], " (GrOUT, known)" if not c["completed"] else "",
                " (1-node baseline)" if not c["baseline_completed"] else ""))
    goodput = completed / sum(grout)
    values = {
        "sim_makespan_s": m.geomean(grout),
        "speedup_vs_1node": m.geomean(ratios),
        "goodput_pps": goodput,
        "goodput_tail_ratio": m.goodput_tail_ratio(done_norm, 0.0, 1.0),
        # A batch offers every request at once, so its ladder has one rung:
        # the batch itself, whose SLO is the run cap.
        "max_rate_under_slo": goodput,
        "completed_frac": 1.0 - m.failed_frac(failed, attempted),
    }
    fig7_reference(cells, cap, report)
    return values, latencies, attempted, failed


def fig7_reference(cells, cap, report):
    peaks = {}
    for c in cells:
        if c["name"].endswith("/vector-step") and c["kind"] in PAPER_FIG7:
            t = c["makespan_s"] if c["completed"] else cap
            base = c["baseline_s"] if c["baseline_completed"] else cap
            peaks[c["kind"]] = max(peaks.get(c["kind"], 0.0), base / t)
    if not peaks:
        return
    report.append("  Fig 7 peak speedup at 3-5x vs the paper (shape check only; the model is "
                  "not validated against absolute values):")
    for kind, (paper, lower_bound) in PAPER_FIG7.items():
        if kind in peaks:
            report.append("    %-3s %7.2fx  paper %s%.2fx  ratio %.2f" % (
                kind, peaks[kind], ">" if lower_bound else "", paper, peaks[kind] / paper))


def serve_end_to_end(raw, report):
    """serve-*: a request is one tenant program, timed from its arrival.
    Simulated metrics pool the replicate runs (seeds derived from --seed)."""
    s = raw["serve"]
    reps = s["replicates"]
    latencies, tails = [], []
    completed = submitted = failed = 0
    elapsed = 0.0
    for r in reps:
        arrivals = [a for a, _ in r["programs"]]
        done = [d for _, d in r["programs"] if d >= 0]
        if len(done) != r["completed"]:
            raise BenchError("trace-derived completions %d != report %d" % (len(done),
                                                                          r["completed"]))
        latencies += [d - a for a, d in r["programs"] if d >= 0]
        # Over the arrival period, normalized by the arrivals in the same
        # windows: 1.0 when completions keep pace with the offered load.
        end = max(arrivals)
        tails.append(m.goodput_tail_ratio(done, 0.0, end) /
                     m.goodput_tail_ratio(arrivals, 0.0, end))
        completed += r["completed"]
        submitted += r["submitted"]
        failed += r["shed"] + r["unfinished"]
        elapsed += r["elapsed_s"]
    one = s["one_node"]
    goodput = completed / elapsed
    rungs = []
    for rung in s["ladder"]:
        lat = [x for r in rung["replicates"] for x in r["latency_s"]]
        drained = all(r["drained"] for r in rung["replicates"])
        p99 = m.tail_percentile(lat, 99)[0] if lat else float("inf")
        rungs.append((rung["rate_hz"], drained, p99))
        report.append("  ladder %6.2f /s/tenant: %s, p99 %.3f s over %d programs" % (
            rung["rate_hz"], "drained" if drained else "NOT drained", p99, len(lat)))
    report.append("  1-node run: %d of %d programs in %.1f sim s%s" % (
        one["completed"], one["submitted"], one["elapsed_s"],
        "" if one["drained"] else " (horizon)"))
    report.append("  %d replicate runs of %d programs each" % (len(reps), reps[0]["submitted"]))
    values = {
        "sim_makespan_s": elapsed / len(reps),
        # Against the first replicate's programs served by one worker; a
        # goodput ratio, since a 1-node run may stop at the horizon.
        "speedup_vs_1node": goodput / (one["completed"] / one["elapsed_s"]),
        "goodput_pps": goodput,
        "goodput_tail_ratio": m.median(tails),
        "max_rate_under_slo": m.max_rate_under_slo(rungs, s["slo_p99_s"]),
        "completed_frac": 1.0 - m.failed_frac(failed, submitted),
    }
    return values, latencies, submitted, failed


def end_to_end(raw, report):
    if raw["kind"] == "batch":
        values, latencies, attempted, failed = batch_end_to_end(raw, report)
    else:
        values, latencies, attempted, failed = serve_end_to_end(raw, report)
    p50 = m.median(latencies)
    p99, used, n = m.tail_percentile(latencies, 99)
    values["latency_p50_s"] = p50
    values["latency_p99_s"] = p99
    report.append("  latency over %d requests; the tail reported is p%.2f%s" % (
        n, used, "" if used >= 99 else " (too few samples beyond p99)"))
    passes = raw["passes"]
    values["host_s"] = m.mean_of_group_medians([p["host_s"] for p in passes],
                                               [p["cpu"] for p in passes])
    values["setup_s"] = m.median(raw["setup_samples_s"])
    values["peak_rss_mib"] = raw["peak_rss_mib"]
    report.append("  %d timed passes over %d CPUs; host_s is the mean over CPUs of the "
                  "median pass" % (len(passes), len({p["cpu"] for p in passes})))
    return values, attempted, failed


# -- per-layer metrics --------------------------------------------------------


def per_layer(raw, report):
    layers = raw["layers"]
    c = layers["counters"]
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    if not traced or not untraced:
        raise BenchError("trace run needs traced and untraced passes")

    def self_s(prefix):
        return m.median([sum(v for k, v in p["self_s"].items() if k.startswith(prefix))
                         for p in traced])

    def pct_us(samples, p):
        return m.tail_percentile(samples, p)[0] / 1e3 if samples else 0.0

    def frac(a, b):
        return a / b if b else 0.0

    sync_s = self_s("core.sync") + self_s("core.host_fetch")
    run_s = self_s("serve.run")
    drive_s = sync_s + run_s
    on = m.mean_of_group_medians([p["host_s"] for p in traced], [p["cpu"] for p in traced])
    off = m.mean_of_group_medians([p["host_s"] for p in untraced],
                                  [p["cpu"] for p in untraced])
    values = {
        "core.launch_us_p50": pct_us(layers["launch_ns"], 50),
        "core.launch_us_p99": pct_us(layers["launch_ns"], 99),
        "core.launch_n": c["ces_scheduled"],
        "dag.add_us_p50": pct_us(layers["dag_add_ns"], 50),
        "dag.add_us_p99": pct_us(layers["dag_add_ns"], 99),
        "core.policy_decision_us_p50": pct_us(layers["decision_ns"], 50),
        "core.policy_decision_us_p99": pct_us(layers["decision_ns"], 99),
        "core.sync_s": sync_s,
        "serve.run_s": run_s,
        "sim.events": c["sim_events"],
        "sim.ns_per_event": frac(drive_s * 1e9, c["sim_events"]),
        "runtime.local_dag_vertices": c["local_dag_vertices"],
        "runtime.local_dag_edges": c["local_dag_edges"],
        "dag.global_vertices": c["global_dag_vertices"],
        "dag.global_edges": c["global_dag_edges"],
        "core.directory_arrays": c["directory_arrays"],
        "core.governor_peak_resident_gib": c["peak_resident_gib"],
        "serve.queue_wait_s_mean": layers.get("queue_wait_s_mean", 0.0),
        "serve.shed": layers.get("shed", 0),
        "serve.starvation_max": layers.get("starvation_max", 0),
        "core.governor_evictions": c["evictions"],
        "core.governor_refetch_frac": frac(c["refetches"], c["evictions"]),
        "core.governor_spills": c["spills"],
        "core.governor_dispatch_stalls": c["dispatch_stalls"],
        "core.directory_invalidations": c["invalidations"],
        "core.directory_ownership_transfers": c["ownership_transfers"],
        "core.directory_refetch_gib": c["refetched_gib"],
        "uvm.faults": c["uvm_faults"],
        "uvm.fetched_gib": c["uvm_fetched_gib"],
        "uvm.written_back_gib": c["uvm_written_back_gib"],
        "uvm.evictions": c["uvm_evictions"],
        "gpusim.kernels": c["kernels"],
        "uvm.storm_kernel_frac": frac(c["storm_kernels"], c["kernels"]),
        "net.transfers": c["net_transfers"],
        "net.bytes_gib": c["net_gib"],
        "net.control_sends": c["control_sends"],
        "core.bytes_planned_gib": c["bytes_planned_gib"],
        "core.p2p_sends": c["p2p_sends"],
        "core.policy_exploration_frac": frac(c["exploration_placements"], c["ces_scheduled"]),
        "workloads.self_s": self_s("workloads."),
        "core.self_s": self_s("core."),
        "serve.self_s": self_s("serve."),
        # Only the first traced pass replays the Global DAG.
        "dag.self_s": max(sum(v for k, v in p["self_s"].items() if k.startswith("dag."))
                          for p in traced),
        "trace.overhead_s": on - off,
        "trace.overhead_frac": frac(on - off, off),
    }
    report.append("  %d traced / %d untraced passes; host_s %.4f s traced vs %.4f s untraced"
                  % (len(traced), len(untraced), on, off))
    if raw["kind"] == "serve":
        report.append("  serve launches run inside engine callbacks: no per-launch spans "
                      "(core.launch_us_* = 0); counters and whole-run spans only")
    return values


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def sim_digest(raw):
    """Hash of the simulated outcome (no wall-clock data)."""
    keep = {k: raw[k] for k in ("batch", "serve") if k in raw}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()[:16]


def main(argv):
    args = parse_args(argv)
    try:
        exe = build()
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(build_dir(), "spans-%s-%d.json" % (args.workload,
                                                                              args.seed))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=170, check=False)
        if proc.returncode != 0:
            log(proc.stderr.decode(errors="replace")[-4000:])
            raise BenchError("grout_perfbench exited with %d" % proc.returncode)
        raw = json.loads(proc.stdout)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("error: %s" % e)
        return 2

    stamp = raw["stamp"]
    if stamp["build_type"] != "Release":
        log("error: refusing to report numbers from a %s build" % stamp["build_type"])
        return 3
    report = ["# GrOUT benchmark: workload %s, seed %d, trace %d" % (
        args.workload, args.seed, args.trace),
        "# build %s, %s cores, compiler %s, git %s, sim_threads %s" % (
            stamp["build_type"], stamp["cores"], stamp["compiler"], git_sha(),
            stamp["sim_threads"])]
    try:
        if args.trace:
            specs = PER_LAYER
            values = per_layer(raw, report)
            attempted = max(1, raw["layers"]["counters"]["ces_scheduled"])
            failed = 0
        else:
            specs = END_TO_END
            values, attempted, failed = end_to_end(raw, report)
    except (BenchError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2

    checks = raw["checks"]
    correct = all(ch["ok"] for ch in checks)
    for ch in checks:
        report.append("  check %-26s %s  %s" % (ch["name"], "ok  " if ch["ok"] else "FAIL",
                                                ch["detail"]))
    report.append("  simulated-outcome digest %s" % sim_digest(raw))
    out = {}
    for name, unit, better in specs:
        out[name] = {"value": values[name], "unit": unit}
        report.append("%-36s %16.6g %-8s (%s is better)" % (name, values[name], unit, better))
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
