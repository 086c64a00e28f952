#!/usr/bin/env python3
"""Trace-to-answer benchmark for KAST: build, run one workload, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload paper|ranks|serve --seed N \
      --seconds S --trace 0|1

builds perfbench/ (with the KAST sources beside it) as a Release
program under .bench_build/, runs the workload, prints every metric
with its unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A failed correctness gate makes the
command exit 1.

Steadiness self-check: runs one workload once per seed and prints each
end-to-end metric's median, quartiles and spread against its bound:

  python3 perfbench/run.py --check --workload serve --runs 10
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
BINARY = BUILD_DIR / "kast_perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark; False on failure."""
    if shutil.which("cmake") is None:
        log("error: cmake not found")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "kast_perfbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-8000:])
            log("error: benchmark build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def source_digest():
    """SHA-256 over the sources the program is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD, marked -dirty for uncommitted changes; None outside git."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, env=env, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty.strip() else "")


def run_once(workload, seed, seconds, trace):
    """Runs the program; returns (exit code, its result dict or None)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK_DIR.relative_to(ROOT))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def select_metrics(spec, result, trace):
    """The result's metrics restricted to BENCHMARK.json's list.

    End-to-end metrics must all be measured. A per-layer metric of a
    layer the workload never calls reads 0: its traced run recorded no
    span or counter there.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    out, missing = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                missing.append(m["name"])
                continue
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            missing.append(f"{m['name']} (unit {got['unit']}, "
                           f"expected {m['unit']})")
            continue
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, missing


def main_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"error: unknown workload '{args.workload}' (have {names})")
        return 2
    if not build():
        return 1
    code, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        log("error: the benchmark program printed no result")
        return code or 1
    metrics, missing = select_metrics(spec, result, args.trace)
    provenance = dict(result.get("provenance", {}))
    provenance["git"] = git_revision() or "not a git checkout"
    provenance["source_sha256"] = source_digest()
    provenance["nproc"] = len(os.sched_getaffinity(0))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    correct = bool(result["correct"]) and not missing
    failed = int(result["failed"])
    if missing:
        log("error: metrics not measured: " + ", ".join(missing))
        failed += 1
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and code == 0 else (code or 1)


def main_check(args):
    """Runs one workload once per seed; prints spread against bounds."""
    spec = load_spec()
    if not build():
        return 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failures = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        code, result = run_once(args.workload, seed, args.seconds, 0)
        if result is None or code != 0:
            failures += 1
            log(f"seed {seed}: failed (exit {code})")
            continue
        metrics, missing = select_metrics(spec, result, 0)
        for name, m in metrics.items():
            values[name].append(m["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in metrics.items()))
    print(f"\nsteadiness of '{args.workload}' over {args.runs} seeds "
          f"from {args.first_seed}, {args.seconds} s each")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, vals in values.items():
        if len(vals) < 2:
            print(f"{name:<16} too few runs")
            worst = "noisy"
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "NOISY")
        if name != "setup_s" and verdict == "NOISY":
            worst = "noisy"
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.2f}  {verdict}")
    print(json.dumps({"workload": args.workload, "values": values}))
    return 1 if failures or worst == "noisy" else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="steadiness self-check over --runs seeds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.seconds is None:
        try:
            args.seconds = load_spec()["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 10
    return main_check(args) if args.check else main_run(args)


if __name__ == "__main__":
    sys.exit(main())
