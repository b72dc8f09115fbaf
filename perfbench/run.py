#!/usr/bin/env python3
"""LORI benchmark runner: builds `perfbench` and runs one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` package (its own
cargo package under perfbench/, target dir $CARGO_TARGET_DIR or
.bench_build), then:

* set-up: starts a set-up-only pass SETUP_REPS times; `setup_s` is the
  median spawn-to-exit time (process start plus building the inputs
  from the seed);
* passes: runs one pass per child process, one at a time, until
  `--seconds` have elapsed. Every pass starts cold (fresh process, fresh
  golden cache per exp-* step). With `--trace 1`, untraced and traced
  passes alternate; the traced ones record spans and give the per-layer
  metrics, and write their span list under perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json names (end-to-end with --trace 0, per-layer
with --trace 1). The line before it records the run context.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("surrogate-flow", "fault-learning", "system-sim")
SETUP_REPS = 15
# Every pass is killed once the run (after the build) has lasted this long,
# so a hung pass cannot hold the run past its 180 s limit.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        log(f"cannot run cargo: {err}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target, "release", "perfbench")


def child_env(threads):
    """The environment of every pass: no inherited LORI_* knobs, and the
    library's default worker pool pinned to the pass's thread count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LORI_")}
    env["LORI_THREADS"] = str(threads)
    return env


def run_child(cmd, env, deadline):
    """Runs one child to completion, killing it at `deadline` (a
    perf_counter time). Returns (wall_s, rusage, exit code, last stdout
    line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    return wall, usage, proc.returncode, lines[-1] if lines else ""


def version():
    """Git revision when the tree is a git checkout, plus a digest of the
    sources the benchmark builds from (a plain checkout has no git)."""
    rev = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"], env=env,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return f"{rev} src-{h.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 1
    deadline = time.perf_counter() + RUN_DEADLINE_S
    threads = os.cpu_count() or 1
    env = child_env(threads)
    base = [binary, "pass", "--workload", args.workload, "--seed", str(args.seed),
            "--threads", str(threads)]

    attempted = failed = 0
    notes = []

    def check(ok, why):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            notes.append(why)

    # Set-up: cold starts of a set-up-only pass.
    setup_s = []
    for _ in range(SETUP_REPS):
        wall, _, code, _ = run_child(base + ["--setup-only"], env, deadline)
        check(code == 0, f"set-up pass exited {code}")
        if code == 0:
            setup_s.append(wall)

    # Measured passes.
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
    passes = {False: [], True: []}
    start = time.perf_counter()
    while True:
        done_u, done_t = len(passes[False]), len(passes[True])
        if time.perf_counter() - start >= args.seconds and done_u >= 1 and (
                not args.trace or done_t >= 1):
            break
        traced = bool(args.trace) and done_t < done_u
        cmd = base + (["--traced", "--trace-out", trace_path] if traced and done_t == 0
                      else ["--traced"] if traced else [])
        wall, usage, code, line = run_child(cmd, env, deadline)
        try:
            rec = json.loads(line) if code == 0 else None
        except ValueError:
            rec = None
        if rec is None:
            check(False, f"{'traced' if traced else 'untraced'} pass exited {code}")
            if len(notes) > 3 or time.perf_counter() >= deadline:
                break
            continue
        rec["proc_wall_s"] = wall
        rec["cpu_s"] = usage.ru_utime + usage.ru_stime
        rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        attempted += rec["attempted"]
        failed += rec["failed"]
        notes += rec["errors"] + [c for c, ok in rec["checks"].items() if not ok]
        passes[traced].append(rec)

    every = passes[False] + passes[True]
    # Outputs must be bit-identical across passes, traced or not.
    for key in ("digest", "model_err"):
        check(len({json.dumps(r[key]) for r in every}) <= 1, f"{key} differs between passes")
    if args.trace:
        check(len({json.dumps(r["layer_counts"], sort_keys=True) for r in passes[True]}) <= 1,
              "per-layer counts differ between traced passes")

    med = statistics.median
    metrics = {}
    u, t = passes[False], passes[True]
    if u and setup_s and not args.trace:
        metrics = {
            "wall_s": med(r["wall_s"] for r in u),
            "setup_s": med(setup_s),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in u),
            "model_err": u[0]["model_err"],
        }
    if u and t:
        for name in t[0]["layer_counts"]:
            metrics[name] = t[0]["layer_counts"][name]
        for name in t[0]["layer_times"]:
            metrics[name] = med(r["layer_times"][name] for r in t)
        metrics["par.cpu_s"] = med(r["cpu_s"] for r in t)
        metrics["par.util"] = med(r["cpu_s"] / (r["proc_wall_s"] * threads) for r in t)
        metrics["par.idle_s"] = med(r["proc_wall_s"] * threads - r["cpu_s"] for r in t)
        metrics["obs.trace_overhead_frac"] = (
            med(r["wall_s"] for r in t) / med(r["wall_s"] for r in u) - 1.0)

    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in want if metrics.get(m["name"]) is None]
    check(not missing, f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics.get(m["name"]) or 0.0, "unit": m["unit"]}
           for m in want}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "cores": os.cpu_count(),
        "threads": threads,
        "cache_mode": every[0]["context"]["cache_mode"] if every else None,
        "version": version(),
        "passes_untraced": len(u),
        "passes_traced": len(t),
        "setup_samples": len(setup_s),
        "wall_s_untraced": [round(r["wall_s"], 4) for r in u],
        "wall_s_traced": [round(r["wall_s"], 4) for r in t],
        "op_fail_frac": failed / attempted if attempted else None,
        "step_counters": t[0]["step_counters"] if t else None,
        "absent_counters": every[0]["absent_counters"] if every else None,
        "trace_file": os.path.relpath(trace_path, ROOT) if args.trace else None,
        "notes": notes[:20],
    }
    print("context: " + json.dumps(context))
    print(json.dumps({
        "correct": failed == 0 and bool(every),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
