"""Command-line front end.

Subcommands mirror the library operations: ``simulate``, ``exact``,
``bound``, ``sweep``, ``check-properties`` and ``kpmf``.  Distributions are
passed as inline JSON objects (``'{"kind": "exponential", "rate": 1}'``) or
as ``@path`` references to a JSON file; the same syntax works everywhere.
``--json`` switches the report to a single machine-readable object that
validates against :data:`aoi.schema.CLI_RESULT_SCHEMA`.

Exit status: 0 on success, 1 on domain errors (the error class name is
printed verbatim so scripts can branch on it), 2 on usage errors.  The
``AOI_SEED`` environment variable supplies the default seed when ``--seed``
is omitted.  Only ``simulate`` reads the seed; every other subcommand
accepts and range-checks it but draws nothing from it (``sweep`` seeds its
``simulate`` rows from the spec's ``base_seed``).  ``exact``, ``bound`` and
``kpmf`` range-check ``--mc-samples`` the same way, and nothing reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import analytic, experiments
from .analytic import EstimatorOptions, Pair
from .distributions import Distribution, from_dict
from .errors import AoiError
from .sim import Z95, Discipline, SimConfig, cycle_statistics, run_simulation

__all__ = ["main", "build_parser"]

SEED_ENV_VAR = "AOI_SEED"


def _dist_argument(text: str) -> Distribution:
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(text)
        return from_dict(data)
    except (OSError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_dist_flags(p: argparse.ArgumentParser, service: bool = True):
    p.add_argument("--interarrival", type=_dist_argument, required=True,
                   metavar="JSON|@FILE", help="interarrival law")
    if service:
        p.add_argument("--service", type=_dist_argument, required=True,
                       metavar="JSON|@FILE", help="service law")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit one machine-readable JSON object")


def _add_estimator_flags(p: argparse.ArgumentParser):
    p.add_argument("--mc-samples", type=int, default=1_000_000,
                   help="validated (>= 10000) but read by no estimator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi",
        description="Average age of information in G/G/1/1 systems: "
                    "simulation, exact formulas, and upper bounds.",
        epilog=f"Default seed comes from ${SEED_ENV_VAR} when --seed is omitted.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="regenerative-cycle simulation")
    p.add_argument("--discipline", choices=["dropping", "preemption"],
                   required=True)
    _add_dist_flags(p)
    p.add_argument("--cycles", type=int, default=10_000)
    p.add_argument("--max-events", type=int, default=None,
                   help="budget of arrivals plus deliveries "
                        "(default: 1000 x --cycles)")
    p.add_argument("--trace", metavar="CSV",
                   help="write an event trace (time, event, age_after_event)")
    _add_common_flags(p)

    p = sub.add_parser("exact", help="exact average age")
    p.add_argument("--discipline", choices=["dropping", "preemption"],
                   required=True)
    _add_dist_flags(p)
    _add_estimator_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("bound", help="closed-form or semi-analytic bounds")
    p.add_argument("--kind", required=True,
                   choices=[t for t in experiments.ESTIMATORS if t != "exact"])
    _add_dist_flags(p)
    _add_estimator_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("kpmf", help="distribution of arrivals per cycle "
                                    "(dropping)")
    _add_dist_flags(p)
    p.add_argument("--k-max", type=int, default=10)
    _add_estimator_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("check-properties",
                       help="classify the mean-residual-life curve")
    p.add_argument("--dist", type=_dist_argument, required=True,
                   metavar="JSON|@FILE")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    p.add_argument("--spec", required=True, metavar="JSON_FILE")
    p.add_argument("--csv", required=True, metavar="OUT_CSV")
    p.add_argument("--chart", metavar="OUT_SVG")
    p.add_argument("--title", default="")
    _add_common_flags(p)

    return parser


def _resolve_seed(args) -> int:
    """The seed from ``--seed``, else ``$AOI_SEED``, else 0; a seed out of
    range is a usage error on every subcommand, whether or not it draws."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise SystemExit(f"aoi: invalid {SEED_ENV_VAR}={raw!r}: not an integer")
    if not 0 <= seed < 2**64:
        raise SystemExit(f"aoi {args.command}: seed must fit in 64 bits, "
                         f"got {seed}")
    return seed


@contextlib.contextmanager
def _usage_errors(args):
    """Turn a ``ValueError`` from checking argv values into a usage error
    (exit 2) that carries the validator's message."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"aoi {args.command}: {exc}") from exc


def _emit(args, command: str, inputs: dict, result: dict, lines: list[str]) -> int:
    if args.as_json:
        payload = {"command": command, "inputs": inputs, "result": result}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cmd_simulate(args) -> int:
    with _usage_errors(args):
        config = SimConfig(interarrival=args.interarrival,
                           service=args.service,
                           discipline=Discipline(args.discipline),
                           target_cycles=args.cycles, seed=args.seed,
                           max_events=args.max_events)
    estimate, records = run_simulation(config, trace_path=args.trace)
    stats = cycle_statistics(records) if len(records) >= 2 else None
    inputs = {"discipline": args.discipline,
              "interarrival": args.interarrival.to_dict(),
              "service": args.service.to_dict(),
              "cycles": args.cycles, "seed": args.seed}
    result = {"value": estimate.value, "ci_half_width": estimate.ci_half_width,
              "cycles_used": estimate.cycles_used, "method": estimate.method}
    lines = [
        f"discipline      {args.discipline}",
        f"interarrival    {args.interarrival.describe()}",
        f"service         {args.service.describe()}",
        f"cycles          {estimate.cycles_used}",
        f"average age     {_fmt(estimate.value)} +/- {_fmt(estimate.ci_half_width)} (95% CI)",
    ]
    if stats is not None:
        result["cycle_statistics"] = {
            "g_mean": stats.g_mean.value, "g_mean_se": stats.g_mean.stderr,
            "k_mean": stats.k_mean.value, "k_mean_se": stats.k_mean.stderr,
            "w_mean": stats.w_mean.value, "busy_mean": stats.busy_mean.value,
            "p_hat": stats.p_hat.value,
        }
        lines.append(f"mean cycle      G={_fmt(stats.g_mean.value)} "
                     f"K={_fmt(stats.k_mean.value)} "
                     f"p_hat={_fmt(stats.p_hat.value)}")
    if args.trace:
        lines.append(f"trace           {args.trace}")
        result["trace"] = str(args.trace)
    return _emit(args, "simulate", inputs, result, lines)


def _estimate(args, tag: str, discipline: Discipline):
    """The command's pair and ``tag``'s result on it from the estimator
    table.  A pair, precondition or moment the table rejects is a usage
    error."""
    with _usage_errors(args):
        pair = Pair(args.interarrival, args.service)
        experiments.require(tag, discipline, pair.service)
        return pair, experiments.ESTIMATORS[tag].calls[discipline](pair)


def _cmd_exact(args) -> int:
    discipline = Discipline(args.discipline)
    pair, estimate = _estimate(args, "exact", discipline)
    inputs = {"discipline": args.discipline, **pair.to_dict(), "seed": args.seed}
    result = {"value": estimate.value, "ci_half_width": estimate.ci_half_width,
              "cycles_used": estimate.cycles_used, "method": estimate.method}
    lines = [
        f"discipline      {args.discipline}",
        f"interarrival    {args.interarrival.describe()}",
        f"service         {args.service.describe()}",
        f"average age     {_fmt(estimate.value)} +/- {_fmt(estimate.ci_half_width)} (95% CI)",
    ]
    return _emit(args, "exact", inputs, result, lines)


def _cmd_bound(args) -> int:
    estimator = experiments.ESTIMATORS[args.kind]
    (discipline,) = estimator.calls  # one per bound
    pair, report = _estimate(args, args.kind, discipline)
    inputs = {"kind": args.kind, **pair.to_dict(), "seed": args.seed}
    result = {"value": report.value, "kind": estimator.kind.value,
              "applicability": report.applicability.value,
              "half_width": report.half_width}
    lines = [
        f"bound           {estimator.kind.value}",
        f"interarrival    {pair.interarrival.describe()}",
        f"service         {pair.service.describe()}",
        f"value           {_fmt(report.value)}",
        f"applicability   {report.applicability.value}",
    ]
    return _emit(args, "bound", inputs, result, lines)


def _cmd_kpmf(args) -> int:
    with _usage_errors(args):
        pair = Pair(args.interarrival, args.service)
        res = analytic.k_pmf(pair, args.k_max)
    inputs = {**pair.to_dict(), "k_max": args.k_max, "seed": args.seed}
    # ``ci`` is the half-width of the proven bracket over Z95.
    result = {
        "pmf": [{"k": i + 1, "probability": m.value, "ci": m.half_width / Z95}
                for i, m in enumerate(res.pmf)],
        "tail_mass": res.tail_mass.value,
        "tail_mass_ci": res.tail_mass.half_width / Z95,
    }
    lines = [f"{'k':>4}  {'Pr(K=k)':>12}  {'hw/1.96':>10}"]
    for i, m in enumerate(res.pmf):
        lines.append(f"{i + 1:>4}  {m.value:>12.6f}  {m.half_width / Z95:>10.2e}")
    lines.append(f"tail beyond k={res.k_max}: {_fmt(res.tail_mass.value)}")
    return _emit(args, "kpmf", inputs, result, lines)


def _cmd_check_properties(args) -> int:
    verdict = args.dist.mrl_class()
    inputs = {"dist": args.dist.to_dict()}
    result = {"verdict": verdict.value, "nbue": verdict.nbue,
              "mean": args.dist.mean()}
    lines = [
        f"distribution    {args.dist.describe()}",
        f"mean            {_fmt(args.dist.mean())}",
        f"MRL verdict     {verdict.value}",
        f"NBUE            {'true' if verdict.nbue else 'false'}",
    ]
    return _emit(args, "check-properties", inputs, result, lines)


def _cmd_sweep(args) -> int:
    try:
        spec = experiments.SweepSpec.from_json_file(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"aoi sweep: bad --spec {args.spec}: {exc}")
    with _usage_errors(args):  # a moment an estimator rejects
        result_obj = experiments.run_sweep(spec)
    experiments.emit_csv(result_obj, args.csv)
    if args.chart:
        experiments.emit_chart(result_obj, args.chart,
                               title=args.title or spec.name,
                               xlabel=spec.swept_param)
    inputs = {"spec": str(args.spec)}
    rows_payload = [{"param": r.param, "estimator": r.estimator,
                     "value": r.value, "ci": r.ci,
                     "applicability": r.applicability}
                    for r in result_obj.rows]
    result = {"rows": rows_payload, "csv": str(args.csv)}
    lines = [f"sweep           {spec.name}",
             f"{'param':>10}  {'estimator':<10}  {'value':>12}  {'ci':>10}  applicability"]
    for r in result_obj.rows:
        value = "divergent" if r.value is None else _fmt(r.value)
        ci = "" if r.ci is None else _fmt(r.ci)
        lines.append(f"{r.param:>10.4g}  {r.estimator:<10}  {value:>12}  "
                     f"{ci:>10}  {r.applicability}")
    lines.append(f"csv             {args.csv}")
    if args.chart:
        result["chart"] = str(args.chart)
        lines.append(f"chart           {args.chart}")
    return _emit(args, "sweep", inputs, result, lines)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "bound": _cmd_bound,
    "kpmf": _cmd_kpmf,
    "check-properties": _cmd_check_properties,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    """Parse ``argv`` and dispatch to the library (console entry point)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _resolve_seed(args)
        if hasattr(args, "mc_samples"):  # validated here, read nowhere
            with _usage_errors(args):
                EstimatorOptions(mc_samples=args.mc_samples)
        return _COMMANDS[args.command](args)
    except AoiError as exc:
        name = type(exc).__name__
        if getattr(args, "as_json", False):
            payload = {"command": args.command, "error": name,
                       "message": str(exc)}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
