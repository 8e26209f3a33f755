"""One pass of one workload, in a fresh interpreter.

Run by run.py; prints one JSON object.  Every pass imports lazycops anew
and makes its inputs from the seed, so no graph, solve result or strategy
object survives from an earlier pass and the program's caches fill inside
the timed region, as they do for a CLI call.  Times are reported both as
measured (raw_*) and scaled to the reference speed of speed.py.

    python3 bench/one_pass.py --workload solve --seed 0 --workdir DIR \
        --t0 PERF_COUNTER [--trace] [--consistency]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _run_op(cli, op, probe) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # an internal error is a failed operation
            code = "exception"
            traceback.print_exc()
    t1 = time.perf_counter()
    result = {"name": op.name, "raw_seconds": t1 - t0, "probe_s": probe.busy(t0, t1),
              "stdout": out.getvalue(), "problem": None, "digest": None, "facts": {}}
    if code != 0:
        result["problem"] = f"exit {code}: {err.getvalue().strip()[-2000:]}"
    return result


def _check(op, result) -> None:
    if result["problem"] is not None:
        return
    try:
        checked = op.check(result["stdout"])
    except Exception as exc:  # any malformed output fails the check
        result["problem"] = f"{type(exc).__name__}: {exc}"
        return
    result["digest"] = hashlib.sha256(checked.canonical).hexdigest()
    result["facts"] = checked.facts


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--consistency", action="store_true")
    args = ap.parse_args(argv)
    probe = SpeedProbe().start()

    sys.path.insert(0, str(SRC))
    import lazycops
    from lazycops import cli
    if Path(lazycops.__file__).resolve().parent != SRC / "lazycops":
        raise SystemExit(f"imported lazycops from {lazycops.__file__}, not from {SRC}")
    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(lazycops)

    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ops, inputs = workload.make(lazycops, args.seed, work)
    ready = time.perf_counter()
    raw_setup_s = ready - args.t0

    results = [_run_op(cli, op, probe) for op in ops]
    probe.stop()
    peak_rss_mb = _peak_rss_mb()
    factor = probe.factor()
    setup_s = (raw_setup_s - probe.busy(args.t0, ready)) * factor
    for r in results:
        r["seconds"] = (r["raw_seconds"] - r["probe_s"]) * factor
    wall_s = sum(r["seconds"] for r in results)

    for op, result in zip(ops, results):
        _check(op, result)
    if args.consistency and workload.consistency is not None and not any(
            r["problem"] for r in results):
        workload.consistency(lazycops, inputs, results)

    rates = workload.rates(results)
    for r in results:
        del r["stdout"]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(r["raw_seconds"] for r in results),
        "speed_factor": factor,
        "peak_rss_mb": peak_rss_mb,
        "rates": rates,
        "ops": results,
        "layers": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
