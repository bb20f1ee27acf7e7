#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload fig8a --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The script builds the perfbench binary
from source into .bench_build (or $CARGO_TARGET_DIR), then runs fresh
processes of it, one repetition each, while the next repetition is expected
to end within --seconds. A fresh process per repetition keeps process-wide
state (the shared connect cache, signing pools, the heap) from warming later
repetitions.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, each the
median over the repetitions. Times are scaled to a reference CPU speed by
the binary's speed probe (see speed.go and README.md). With --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics, each the median over the traced repetitions, plus
trace.overhead_s: the median scaled wall time of the traced repetitions
minus that of the untraced ones.

The last line of standard output is the result; everything else goes to
standard error. Any failure to build or run exits non-zero without a
result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Measuring ends this long after the build at the latest: a repetition still
# running then is killed and the run fails, so the whole run stays within
# 180 seconds.
RUN_LIMIT_S = 165

# Variables that change how the Go runtime schedules or collects garbage;
# repetitions run with the defaults (GOMAXPROCS = nproc).
RUNTIME_ENV = ("GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG")

# Units of the end-to-end metrics end_to_end computes.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_rate": "s/s", "cpu_s": "s", "peak_rss_mb": "MB"}

# The speed probe's median over 90 repetitions on the 2-CPU Xeon box the
# benchmark was tuned on, in CPU seconds per unit of probe work. Times are
# scaled by REFERENCE_PROBE_S / probe_s: to what they would have been had
# the machine run at that speed throughout.
REFERENCE_PROBE_S = 660e-6


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    d.mkdir(parents=True, exist_ok=True)
    return d


def go_env(bdir):
    """Keeps the toolchain's caches and temporary files inside the build
    directory, and the toolchain offline."""
    env = {k: v for k, v in os.environ.items() if k not in RUNTIME_ENV}
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env.update(
        GOCACHE=str(bdir / "gocache"),
        GOPATH=str(bdir / "gopath"),
        GOTMPDIR=str(tmp),
        TMPDIR=str(tmp),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build_binary(bdir, env):
    binary = bdir / "perfbench"
    started = time.perf_counter()
    proc = subprocess.run(["go", "build", "-o", str(binary), "."],
                          cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("go build failed")
    log(f"build: {time.perf_counter() - started:.1f}s")
    return binary


def run_rep(binary, env, bdir, args, traced, timeout):
    """Runs one repetition in a fresh process; returns its report plus the
    process's wall time and resource usage."""
    work = bdir / "work"
    work.mkdir(exist_ok=True)
    out_path = bdir / "rep.json"
    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed), "-dir", str(work)]
    if traced:
        cmd.append("-trace")
    with open(out_path, "w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = out_path.read_text().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed no report")
    rep = json.loads(lines[-1])
    if not rep["probe_s"] > 0:
        raise BenchError("the speed probe could not read the thread CPU clock")
    rep["wall_s"] = wall
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["peak_rss_kib"] = usage.ru_maxrss  # KiB on Linux
    return rep


def end_to_end(rep):
    f = REFERENCE_PROBE_S / rep["probe_s"]
    return {
        "wall_s": rep["wall_s"] * f,
        "setup_s": rep["setup_s"] * f,
        "sim_rate": rep["sim_s"] / (rep["sim_wall_s"] * f),
        "cpu_s": rep["cpu_s"] * f,
        "peak_rss_mb": rep["peak_rss_kib"] * 1024 / 1e6,
    }


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(args, spec):
    if not (ROOT / "go.mod").is_file():
        raise BenchError(f"no go.mod at {ROOT}: run from the root of a full checkout")
    bdir = build_dir()
    env = go_env(bdir)
    binary = build_binary(bdir, env)
    started = time.perf_counter()
    plain, traced = [], []
    longest = 0.0
    while True:
        for tr in ([False, True] if args.trace else [False]):
            timeout = started + RUN_LIMIT_S - time.perf_counter()
            rep = run_rep(binary, env, bdir, args, tr, max(timeout, 1))
            (traced if tr else plain).append(rep)
            longest = max(longest, rep["wall_s"])
            log(f"rep {len(plain) + len(traced)}{' traced' if tr else ''}: wall {rep['wall_s']:.3f}s "
                f"setup {rep['setup_s']:.4f}s cpu {rep['cpu_s']:.2f}s rss {rep['peak_rss_kib'] // 1024}MiB "
                f"probe {rep['probe_s'] * 1e6:.0f}us ops {rep['attempted']} failed {len(rep['failures'])}")
            for f in rep["failures"]:
                log(f"  FAILED {f}")
        next_pass = longest * (2 if args.trace else 1)
        if time.perf_counter() - started + next_pass > args.seconds:
            break

    env_rec = plain[0]["env"]
    log(f"env: nproc {os.cpu_count()}, GOMAXPROCS {env_rec['gomaxprocs']}, cpu {cpu_model()}, "
        f"{env_rec['go']}, work dir {Path(env_rec['work_dir']).parent} ({env_rec['work_fs']})")

    reps = plain + traced
    result = {
        "correct": all(r["unexpected"] == 0 for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(len(r["failures"]) for r in reps),
    }
    if args.trace:
        values = medians([{k: m["value"] for k, m in r["layers"].items()} for r in traced])
        units = {k: m["unit"] for k, m in traced[0]["layers"].items()}
        values["trace.overhead_s"] = (statistics.median(end_to_end(r)["wall_s"] for r in traced)
                                      - statistics.median(end_to_end(r)["wall_s"] for r in plain))
        units["trace.overhead_s"] = "s"
        declared = spec["per_layer"]
    else:
        values = medians([end_to_end(r) for r in plain])
        units = END_TO_END_UNITS
        declared = spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in declared}
    if names != {k: units[k] for k in values}:
        raise BenchError(f"metrics {sorted(values)} with units {units} do not match BENCHMARK.json")
    result["metrics"] = {k: {"value": values[k], "unit": names[k]} for k in names}
    return result


def main():
    # Turn SIGTERM into an exception, so a running repetition is killed and
    # reaped before the script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
