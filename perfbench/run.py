#!/usr/bin/env python3
"""Benchmark of the ``aoi`` CLI: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload dropping-walk --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout (it imports ``aoi`` from ``src/``).
Each op is one in-process ``aoi.cli.main([..., "--json"])`` call; the next
op starts when the previous one returns.  The run makes two passes over its
op list with identical seeds.  With ``--trace 0`` both are untraced and
timed; with ``--trace 1`` the second is traced.  Every op's output is
validated against the CLI schema, compared between the two passes and
checked by the oracle, all after the ops have run.  The last line of stdout
is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# On a shared VM the speed of the same code can drift by 1.5x between runs,
# more than the changes the benchmark must resolve.  So a fixed speed
# probe (no aoi code) runs before every timed op, and times
# are reported at reference speed: measured time x REFERENCE_PROBE_S / the
# run's mean probe time.  REFERENCE_PROBE_S is the probe's time on a quiet
# 2-vCPU x86-64 VM, where reported and measured times agree.
REFERENCE_PROBE_S = 0.004

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"),
              ("op_s_p90", "s"), ("peak_rss_mb", "MiB"), ("fail_rate", "ratio")]


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args, workdir: Path):
    """What a fresh workload process does before its first op."""
    import workloads
    from aoi import cli
    cli.build_parser()
    return workloads.build_ops(args.workload, args.seed, args.seconds, workdir)


def _setup_seconds(args, probe_dir: Path) -> float:
    """Wall time of a fresh process that only sets up."""
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120)
    return time.perf_counter() - t0


class _Event:
    __slots__ = ("t", "k")

    def __init__(self, t, k):
        self.t, self.k = t, k


def _speed_probe() -> float:
    """Seconds for a fixed mix shaped like the three workloads: an event
    loop over small objects, NumPy draws and exponentials on 1e5-element
    arrays, and one adaptive quadrature."""
    import numpy as np
    from scipy import integrate
    t0 = time.perf_counter()
    events, t = [], 0.0
    for i in range(2000):
        t += 0.5 + (i % 7) * 0.1
        events.append(_Event(t, i % 3))
    total = sum(e.t for e in events if e.k)
    x = np.random.default_rng(7).exponential(1.0, 100_000)
    total += np.exp(-x).sum() + np.exp(-2 * x).sum()
    total += integrate.quad(lambda u: math.exp(-u) * u, 0, math.inf)[0]
    return time.perf_counter() - t0


class OpResult(NamedTuple):
    code: object          # exit status, or None when the op raised
    stdout: str
    seconds: float
    error: Optional[str]  # traceback when the op raised


def _call(op) -> OpResult:
    from aoi import cli
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([*op.argv, "--json"])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that raises is a failed op, not a failed run
        code, error = None, traceback.format_exc(limit=3)
    return OpResult(code, buf.getvalue(), time.perf_counter() - t0, error)


def _timed_pass(ops, probes: list[float]) -> list[OpResult]:
    """Run the ops untraced, each after a speed probe."""
    results = []
    for op in ops:
        probes.append(_speed_probe())
        results.append(_call(op))
    return results


def _traced_pass(ops, tracer) -> list[OpResult]:
    import tracing
    results = []
    with tracing.installed(tracer):
        for op in ops:
            tracer.op_id = op.index
            results.append(_call(op))
            tracer.counters["cli.stdout_bytes"] += len(results[-1].stdout.encode())
            if op.check.get("traced"):
                with open(op.outputs[0], "rb") as fh:
                    tracer.counters["sim.trace.rows"] += sum(1 for _ in fh) - 1
    return results


def _judge(ops, first, second) -> list[list[str]]:
    """Failure reasons per op: its second run is checked, and must match
    its first."""
    import jsonschema

    import oracle
    from aoi.schema import CLI_RESULT_SCHEMA
    validator = jsonschema.Draft7Validator(CLI_RESULT_SCHEMA)
    verdicts = []
    for op, a, b in zip(ops, first, second):
        reasons = []
        if b.error is not None:
            reasons.append(f"raised: {b.error.strip().splitlines()[-1]}")
        elif b.code != 0:
            reasons.append(f"exit code {b.code}")
        if (a.code, a.stdout) != (b.code, b.stdout):
            reasons.append("output differs between two runs with the same seed")
        try:
            payload = json.loads(b.stdout)
        except ValueError:
            payload = None
            reasons.append("stdout is not one JSON object")
        if payload is not None:
            errors = [e.message for e in validator.iter_errors(payload)]
            if errors:
                reasons.append(f"schema: {errors[0]}")
            elif "error" in payload:
                reasons.append(f"{payload['error']}: {payload['message']}")
            else:
                try:
                    reasons += oracle.check(op, payload)
                except (KeyError, TypeError, ValueError, OSError) as exc:
                    reasons.append(f"oracle could not read the output: {exc!r}")
        verdicts.append(reasons)
    return verdicts


def _write_ops(path: Path, ops, first, second, verdicts):
    """Per-op record of the run: key, argv, both pass times and failures."""
    rows = [{"index": op.index, "key": op.key, "argv": op.argv,
             "seconds": [a.seconds, b.seconds], "failures": why}
            for op, a, b, why in zip(ops, first, second, verdicts)]
    path.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")


def _environment(args, ops) -> dict:
    import numpy
    import scipy

    import workloads
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "rounds": workloads.rounds(args.workload, args.seconds),
            "ops": len(ops), "sizes": workloads.sizes()}


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "aoi" / "cli.py").is_file():
        print(f"perfbench: no aoi sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args, Path(args.setup_probe))
        return 0

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _measure(args, workdir: Path) -> int:
    import tracing
    known = json.loads((HERE / "known_failures.json").read_text(encoding="utf-8"))
    # Set-up runs before, between and after the two passes, so their median
    # spans the run.
    setup_times = [] if args.trace else [_setup_seconds(args, workdir / "setup-1")]
    ops = _setup(args, workdir)
    env = _environment(args, ops)
    print("environment " + json.dumps(env, sort_keys=True))

    probes: list[float] = []
    if args.trace:
        first = [_call(op) for op in ops]
        tracer = tracing.Tracer()
        second = _traced_pass(ops, tracer)
    else:
        first = _timed_pass(ops, probes)
        setup_times.append(_setup_seconds(args, workdir / "setup-2"))
        second = _timed_pass(ops, probes)
        setup_times.append(_setup_seconds(args, workdir / "setup-3"))
    verdicts = _judge(ops, first, second)

    failed = [(op, why) for op, why in zip(ops, verdicts) if why]
    unexpected = [(op, why) for op, why in failed if op.key not in known]
    by_kind = Counter(op.argv[0] if op.argv[0] != "bound" else f"bound {op.argv[2]}"
                      for op in ops)
    print("ops " + ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items())))
    for key, n in sorted(Counter(op.key for op, _ in failed).items()):
        tag = "known" if key in known else "UNEXPECTED"
        reason = next(why for op, why in failed if op.key == key)
        print(f"failed ({tag}) x{n}: {key}: {'; '.join(reason)}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    _write_ops(out_dir / f"ops-{args.workload}-trace{args.trace}.json",
               ops, first, second, verdicts)
    if args.trace:
        tracer.write(out_dir / f"spans-{args.workload}.npz")
        values = tracing.layer_metrics(tracer, sum(r.seconds for r in second),
                                       sum(r.seconds for r in first))
        units = dict(tracing.LAYER_METRICS)
    else:
        # An op's latency is the mean of its two runs, at reference speed.
        speed = REFERENCE_PROBE_S / statistics.fmean(probes)
        seconds = [speed * (a.seconds + b.seconds) / 2 for a, b in zip(first, second)]
        print(f"measured: op time pass 1 {sum(r.seconds for r in first):.6g} s, "
              f"pass 2 {sum(r.seconds for r in second):.6g} s; set-up runs "
              + ", ".join(f"{t:.4g} s" for t in setup_times)
              + f"; mean speed probe {statistics.fmean(probes) * 1e3:.4g} ms "
              f"(reference {REFERENCE_PROBE_S * 1e3:g} ms)")
        values = {
            "setup_s": speed * statistics.median(setup_times),
            "wall_s": sum(seconds),
            "op_s_p50": statistics.median(seconds),
            "op_s_p90": _p90(seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # Add-one estimate of the failure share: never 0, and one new
            # failure on a clean workload doubles it.
            "fail_rate": (len(failed) + 1) / (len(ops) + 1),
        }
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
