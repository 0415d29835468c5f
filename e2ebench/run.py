#!/usr/bin/env python3
"""End-to-end A-Seq job benchmark runner (see README.md in this directory).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py                 # every workload, one table

Builds e2e_job from source (Release) under .bench_build/, generates the
workload's trace from --seed, computes the reference output digest in a
process of its own, then runs one job per process in a closed loop for
--seconds. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A wrong output makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Seed 9001 is held out: use it only to confirm a claimed gain, never to tune.

# name -> unit, in print order. failed_frac is carried by the result's
# attempted/failed fields (it is 0 on a correct run, so it is printed in the
# table but not reported as a metric).
END_TO_END = {
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ns_per_event": "ns",
}
PER_LAYER = {
    "stream.read_s": "s",
    "stream.ns_per_event": "ns",
    "stream.mb_per_s": "MB/s",
    "query.compile_us": "us",
    "exec.policy_build_ms": "ms",
    "plan.prefilter_ns_per_event": "ns",
    "plan.admit_ns_per_event": "ns",
    "plan.relevant_frac": "ratio",
    "plan.admit_frac": "ratio",
    "exec.route_ns_per_event": "ns",
    "exec.trigger_frac": "ratio",
    "exec.route_skew": "ratio",
    "engine.ns_per_event": "ns",
    "engine.batch_p50_us": "us",
    "engine.batch_p99_us": "us",
    "engine.peak_objects": "count",
    "engine.outputs_per_kevent": "1/kevent",
    "exec.run_s": "s",
    "exec.shard_busy_max_s": "s",
    "exec.shard_busy_sum_s": "s",
    "exec.shard_imbalance": "ratio",
    "exec.critical_path_frac": "ratio",
    "exec.pub_batches": "count",
    "exec.ring_full_waits": "count",
    "exec.ring_spins": "count",
    "exec.park_s_sum": "s",
    "exec.parks": "count",
    "ckpt.snapshot_ms": "ms",
    "ckpt.snapshot_mb": "MB",
    "ckpt.recovery_points": "count",
    "exec.barrier_s": "s",
    "trace.overhead_frac": "ratio",
}
MIN_JOBS = 3  # per run, however short --seconds is


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(bdir):
    """Configures (once) and builds e2e_job; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "e2e_job", "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(logpath, "w") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(logpath) as f:
                    log("".join(f.readlines()[-20:]))
                log("e2ebench: build failed (log: %s)" % logpath)
                return None
    return os.path.join(bdir, "e2e_job")


def tool_json(binary, args):
    out = subprocess.run([binary] + args, stdout=subprocess.PIPE, check=False)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("e2e_job %s failed (exit %d): %s" %
                           (args[0], out.returncode, lines[-1] if lines else ""))
    return json.loads(lines[-1])


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if out.returncode == 0:
            return out.stdout.decode().strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_job(binary, cmd, workload, trace, extra):
    """One job in its own process. Returns (job json or None, rusage)."""
    argv = [binary, cmd, "--workload", workload, "--trace", trace] + extra
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        job = json.loads(lines[-1]) if lines else None
    except ValueError:
        job = None
    if proc.returncode != 0 or job is None or job.get("status") != "ok":
        log("e2ebench: %s job failed (exit %d): %s" %
            (workload, proc.returncode, lines[-1] if lines else "no output"))
        return None, usage
    return job, usage


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(binary, env, wl, args):
    """Runs one workload for args.seconds; returns (result dict, summary)."""
    bdir = build_dir()
    tdir = os.path.join(bdir, "traces")
    os.makedirs(tdir, exist_ok=True)
    # One file per trace family, regenerated every run: the same seed
    # always yields the same bytes, and old seeds do not pile up on disk.
    trace = os.path.join(tdir, "%s.csv" % wl["trace"])
    gen = ["gen", "--workload", wl["name"], "--seed", str(args.seed), "--out", trace]
    if args.events:
        gen += ["--events", str(args.events)]
    generated = tool_json(binary, gen)
    oracle = tool_json(binary, ["oracle", "--workload", wl["name"], "--trace", trace])

    run_env = dict(env)
    run_env.update({
        "workload": wl["name"], "seed": args.seed, "shards": wl["shards"],
        "supervise": wl["supervise"], "strategy": wl["strategy"],
        "trace_events": generated["events"], "trace_bytes": generated["bytes"],
        "oracle_outputs": oracle["outputs"], "oracle_digest": oracle["digest"],
    })

    extra = []
    if args.perturb_output is not None:
        extra = ["--perturb", str(args.perturb_output)]
    spans_out = os.path.join(bdir, "spans-%s.json" % wl["name"])

    attempted = failed = 0
    samples = {k: [] for k in END_TO_END}
    untraced_wall, traced_wall = [], []
    layers = {}
    shards_used = set()
    deadline = time.monotonic() + args.seconds
    while attempted < MIN_JOBS or time.monotonic() < deadline:
        # Traced mode alternates plain and traced jobs, so the overhead
        # ratio compares neighbours; the first job is a plain one.
        traced = args.trace == 1 and attempted % 2 == 1
        cmd_extra = extra + (["--spans-out", spans_out] if traced else [])
        job, usage = run_job(binary, "traced" if traced else "job",
                             wl["name"], trace, cmd_extra)
        attempted += 1
        if (job is None or job["digest"] != oracle["digest"]
                or job["outputs"] != oracle["outputs"]
                or job["events"] != generated["events"]):
            if job is not None:
                log("e2ebench: %s output mismatch: %d outputs digest %s, "
                    "reference %d outputs digest %s" %
                    (wl["name"], job["outputs"], job["digest"],
                     oracle["outputs"], oracle["digest"]))
            failed += 1
            continue
        shards_used.add(job["shards"])
        wall = job["read_s"] + job["run_s"]
        if traced:
            traced_wall.append(wall)
            for name, m in job["layers"].items():
                layers.setdefault(name, []).append(m["value"])
            continue
        untraced_wall.append(wall)
        n = job["events"]
        samples["events_per_s"].append(n / wall)
        samples["setup_s"].append(job["setup_s"])
        samples["peak_rss_mb"].append(usage.ru_maxrss * 1024 / 1e6)
        samples["cpu_ns_per_event"].append(
            (usage.ru_utime + usage.ru_stime) * 1e9 / n)

    run_env["shards_used"] = sorted(shards_used)
    run_env["jobs"] = attempted
    metrics = {}
    if args.trace == 1:
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = (median(traced_wall) / median(untraced_wall) - 1
                         if traced_wall and untraced_wall else 0.0)
            else:
                value = median(layers.get(name, []))
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median(samples[name]), "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    summary = {"env": run_env, "samples": samples,
               "job_wall_s": median(untraced_wall)}
    return result, summary


def role_checks(name, result, summary):
    """The workload's stated role, checked on the traced run's layers."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    checks = []
    if name == "count_serial" and "stream.read_s" in m and summary["job_wall_s"]:
        share = m["stream.read_s"] / summary["job_wall_s"]
        checks.append(("stream.read_s share of job wall", share, share > 0.5))
    if name == "multi_nonshare_sharded" and "exec.critical_path_frac" in m:
        v = m["exec.critical_path_frac"]
        checks.append(("exec.critical_path_frac", v, v < 0.5))
    for label, value, ok in checks:
        print("role %s: %s = %.4g (%s)" % (name, label, value,
                                           "met" if ok else "NOT MET"))


def print_table(rows):
    print("%-24s %-28s %16s %s" % ("workload", "metric", "value", "unit"))
    for wl, result in rows:
        for name, m in result["metrics"].items():
            print("%-24s %-28s %16.6g %s" % (wl, name, m["value"], m["unit"]))
        frac = result["failed"] / result["attempted"]
        print("%-24s %-28s %16.6g %s" % (wl, "failed_frac", frac, "ratio"))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--events", type=int, default=0,
                   help="override the trace length (self-test scale)")
    p.add_argument("--perturb-output", type=int, default=None,
                   help="test hook: alter output I of every job")
    args = p.parse_args()

    binary = build(build_dir())
    if binary is None:
        return 1
    env = tool_json(binary, ["env"])
    env["nproc"] = os.cpu_count()
    env["cpus_allowed"] = len(os.sched_getaffinity(0))
    env["git_commit"] = git_commit()
    if not env["optimized"] or env["sanitized"]:
        log("e2ebench: REFUSED: e2e_job is a %s build (optimized=%s, "
            "sanitized=%s); its numbers would not describe a release build" %
            (env["build_type"], env["optimized"], env["sanitized"]))
        return 3

    workloads = {w["name"]: w for w in tool_json(binary, ["workloads"])}
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            log("e2ebench: unknown workload %r (have: %s)" %
                (name, ", ".join(workloads)))
            return 2
        if workloads[name]["shards"] + 1 > env["cpus_allowed"]:
            log("e2ebench: WARNING: %d shards + coordinator on %d cpus; "
                "sharded numbers are not comparable to a 4-core run" %
                (workloads[name]["shards"], env["cpus_allowed"]))

    rows = []
    for name in names:
        result, summary = run_workload(binary, env, workloads[name], args)
        print("env: " + json.dumps(summary["env"], sort_keys=True))
        if args.trace == 1:
            role_checks(name, result, summary)
        rows.append((name, result))
        rdir = os.path.join(build_dir(), "results")
        os.makedirs(rdir, exist_ok=True)
        with open(os.path.join(rdir, "%s-seed%d-trace%d.json" %
                               (name, args.seed, args.trace)), "w") as f:
            json.dump({"env": summary["env"], "result": result,
                       "samples": summary["samples"]}, f, indent=1)

    if len(rows) == 1:
        print(json.dumps(rows[0][1]))
        return 0 if rows[0][1]["correct"] else 1

    print_table(rows)
    by_name = dict(rows)
    if args.trace == 0 and {"sum_groups_sharded", "sum_groups_supervised"} <= set(by_name):
        sharded = by_name["sum_groups_sharded"]["metrics"]["events_per_s"]["value"]
        supervised = by_name["sum_groups_supervised"]["metrics"]["events_per_s"]["value"]
        print("role sum_groups_supervised: events_per_s %.4g < sum_groups_sharded "
              "%.4g (%s)" % (supervised, sharded,
                             "met" if supervised < sharded else "NOT MET"))
    if args.trace == 0 and {"sum_groups_serial", "sum_groups_sharded"} <= set(by_name):
        serial = by_name["sum_groups_serial"]["metrics"]["events_per_s"]["value"]
        sharded = by_name["sum_groups_sharded"]["metrics"]["events_per_s"]["value"]
        print("role sum_groups_sharded: events_per_s %.4g > sum_groups_serial "
              "%.4g (%s)" % (sharded, serial,
                             "met" if sharded > serial else "NOT MET"))
    correct = all(r["correct"] for _, r in rows)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "workloads": {n: r["metrics"] for n, r in rows},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError) as e:
        log("e2ebench: %s" % e)
        sys.exit(1)
