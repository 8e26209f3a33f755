"""Benchmark of the lazycops CLI.

    python3 bench/run.py --workload {solve,play,expansion} --seed N \
        --seconds S --trace {0,1}

Runs one workload (see workloads.py) as repeated cold passes, one at a
time, each in a fresh interpreter (one_pass.py), until S seconds have
passed, and checks every operation's output.  Outputs of one seed must be
byte-identical in every pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the passes; times are scaled to the reference speed of speed.py, which
takes out most of the drift of a shared CPU (the record keeps raw times).  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of BENCHMARK.json as medians over the traced passes
(spans.py), plus trace.overhead_ratio; it fails if a traced output differs
from the untraced one or if a span the workload should hit records no call.

Prints a JSON record of the run (git sha, Python, nproc, load average),
then, as the last line, {"correct", "attempted", "failed", "metrics"}.
Exits 1 if an operation or check failed, 2 if the checkout has no source.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170        # a run ends by then, killing a pass that hangs
MIN_PASSES = 2           # digests are compared across passes


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_pass(args, workdir: Path, index: int, traced: bool, consistency: bool,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir / f"pass{index}")]
    cmd += ["--trace"] * traced + ["--consistency"] * consistency
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["duration_s"] = time.perf_counter() - t0
    return result


def _run_passes(args, workdir: Path) -> list:
    """Untraced passes, or untraced and traced passes in turn, for --seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        kinds = {p.get("traced") for p in passes}
        enough = len(passes) >= MIN_PASSES and (not args.trace or kinds >= {False, True})
        if enough and elapsed >= args.seconds:
            break
        longest = max((p.get("duration_s", 0.0) for p in passes), default=0.0)
        if passes and elapsed + longest > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(args, workdir, len(passes), traced,
                                consistency=not passes, timeout=RUN_LIMIT_S - elapsed))
        if "error" in passes[-1]:
            break
    return passes


def _audit(passes, expected_spans) -> tuple:
    """(attempted, failed, problems): every op's check, digests equal across
    passes, and, in traced passes, a call on every expected span."""
    problems = []
    attempted = failed = 0
    first = {}
    for i, p in enumerate(passes):
        if "error" in p:
            attempted += 1
            failed += 1
            problems.append(p["error"])
            continue
        for op in p["ops"]:
            attempted += 1
            if op["problem"] is None and first.setdefault(op["name"], op["digest"]) != op["digest"]:
                kind = "traced output" if p["traced"] else "output"
                op["problem"] = f"{kind} differs from the first pass"
            if op["problem"] is not None:
                failed += 1
                problems.append(f"pass {i} {op['name']}: {op['problem']}")
        if p["traced"]:
            attempted += 1
            silent = [s for s in expected_spans if not p["layers"][f"{s}.calls"]]
            if silent:
                failed += 1
                problems.append(f"pass {i}: no calls recorded on {silent}")
    return attempted, failed, problems


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through the finally blocks, which kill a running pass and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "lazycops" / "cli.py").is_file():
        print(f"bench: no lazycops source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        passes = _run_passes(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    record["loadavg_end"] = os.getloadavg()

    attempted, failed, problems = _audit(passes, workload.expected_spans)
    for problem in problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    plain = [p for p in passes if "error" not in p and not p["traced"]]
    traced = [p for p in passes if "error" not in p and p["traced"]]
    record["passes"] = [{k: p.get(k) for k in ("traced", "setup_s", "wall_s", "raw_setup_s",
                                               "raw_wall_s", "speed_factor", "duration_s")}
                        for p in passes]

    values = {}
    if plain and len(plain) + len(traced) == len(passes):
        values = {
            "setup_s": _median(plain, "setup_s"),
            "wall_s": _median(plain, "wall_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "ok_ratio": (attempted - failed) / attempted,
        }
        rates = {k: statistics.median(p["rates"][k] for p in plain) for k in plain[0]["rates"]}
        values["work_per_s"] = rates["work_per_s"]
        record["workload_rates"] = {k: {"value": v, "unit": "1/s"} for k, v in rates.items()}
        if traced:
            for name in traced[0]["layers"]:
                values[name] = statistics.median(p["layers"][name] for p in traced)
            values["trace.overhead_ratio"] = _median(traced, "wall_s") / values["wall_s"] - 1.0

    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values] if values else []
    if missing:
        attempted += 1
        failed += 1
        print(f"bench: FAILED metrics not measured: {missing}", file=sys.stderr)
    metrics = {} if missing or not values else {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
