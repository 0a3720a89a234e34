"""Command-line front end.

Subcommands mirror the library operations: ``simulate``, ``exact``,
``bound``, ``sweep``, ``check-properties`` and ``kpmf``.  Distributions are
passed as inline JSON objects (``'{"kind": "exponential", "rate": 1}'``) or
as ``@path`` references to a JSON file; the same syntax works everywhere.
``--json`` switches the report to a single machine-readable object that
validates against :data:`aoi.schema.CLI_RESULT_SCHEMA`, printed on one
line (so runs can be appended as NDJSON) by the C JSON encoder.
:func:`main` reads an argv that names a subcommand first in one walk over
that subcommand's own parser from the tree :func:`build_parser` defines:
each word an exact option string of a plain store action followed by its
value, or ``--json``.  Any other argv (an abbreviation, the ``=`` form,
``-h``, ``--``, a value starting with ``-`` or one its type refuses, a
missing required option) goes unchanged to argparse, which stays the one
source of help and usage errors.  The text report is built only when it
is printed, never for ``--json``.

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
import functools
import json
import math
import os
import sys
from collections.abc import Callable

from . import analytic, experiments
from .analytic import Pair
from .distributions import Distribution, from_dict
from .errors import AoiError
from .sim import (Z95, Discipline, SimConfig, cycle_statistics, run_simulation,
                  seed64)

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
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested past the decoder's depth limit
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_dist_flags(p: argparse.ArgumentParser):
    p.add_argument("--interarrival", type=_dist_argument, required=True,
                   metavar="JSON|@FILE", help="interarrival law")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing reads
    it but never changes it, so every call sees the same parser."""
    return build_parser()


@functools.cache
def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser in :func:`_parser`'s tree, by name."""
    (action,) = (a for a in _parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _walk(parser: argparse.ArgumentParser, words) -> argparse.Namespace | None:
    """``parser.parse_known_args(words)``'s namespace, read in one walk
    when every word is an exact option string of a plain store action
    followed by one value that does not start with ``-``, converted by the
    action's ``type`` and within its ``choices``, or of a store-constant
    flag (``--json``); then the defaults fill every other ``dest``.  None
    for any other argv, which argparse must read: an abbreviation, the
    ``=`` form, ``-h``, ``--``, a value starting with ``-`` or one its
    ``type`` refuses, or a required option left out."""
    options, values, i = parser._option_string_actions, {}, 0
    while i < len(words):
        action = options.get(words[i])
        if isinstance(action, argparse._StoreConstAction):
            values[action.dest] = action.const
            i += 1
            continue
        if (type(action) is not argparse._StoreAction or action.nargs is not None
                or i + 1 == len(words) or words[i + 1].startswith("-")):
            return None
        try:
            value = words[i + 1] if action.type is None else action.type(words[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        i += 2
    defaults = {}
    for action in parser._actions:
        if action.dest in values:
            continue
        if action.required:
            return None
        if argparse.SUPPRESS not in (action.dest, action.default):  # -h
            defaults[action.dest] = action.default
    return argparse.Namespace(**defaults, **values)


def _parse(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` without the top-level pass: an argv
    that starts with a subcommand is read by :func:`_walk` over that
    subcommand's own parser or, where the walk returns None, by that
    parser's ``parse_known_args``, as the top-level parser would hand it
    on, leftovers being the top-level parser's usage error; any other argv
    (none, ``-h``, an unknown command, an option first) takes the
    top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _subparsers().get(argv[0]) if argv else None
    if parser is None:
        return _parser().parse_args(argv)
    args = _walk(parser, argv[1:])
    if args is None:
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


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
    try:
        return seed64("seed", seed)
    except ValueError as exc:  # as _usage_errors, without its generator
        raise SystemExit(f"aoi {args.command}: {exc}") from exc


@contextlib.contextmanager
def _usage_errors(args):
    """Turn a ``ValueError`` from checking argv values into a usage error
    (exit 2) that carries the validator's message."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"aoi {args.command}: {exc}") from exc


@contextlib.contextmanager
def _writing(args, *paths):
    """Refuse an output path that cannot be written as a usage error
    (exit 2), in one line: before any work, one whose directory does not
    exist; then any ``OSError`` from writing it."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise SystemExit(f"aoi {args.command}: cannot write {path}: "
                             "no such directory")
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"aoi {args.command}: cannot write {exc.filename}: "
                         f"{exc.strerror}") from exc


def _emit(args, command: str, inputs: dict, result: dict,
          report: Callable[[], list[str]]) -> int:
    """Print the ``--json`` object, or the text report's lines, which
    ``report()`` builds only when they are printed."""
    if args.as_json:
        payload = {"command": command, "inputs": inputs, "result": result}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(report()))
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
    with _writing(args, args.trace):
        estimate, records = run_simulation(config, trace_path=args.trace)
    stats = cycle_statistics(records)
    inputs = {"discipline": args.discipline,
              "interarrival": args.interarrival.to_dict(),
              "service": args.service.to_dict(),
              "cycles": args.cycles, "seed": args.seed}
    result = {"value": estimate.value, "ci_half_width": estimate.ci_half_width,
              "cycles_used": estimate.cycles_used, "method": estimate.method,
              "cycle_statistics": {
                  "g_mean": stats.g_mean.value, "g_mean_se": stats.g_mean.stderr,
                  "k_mean": stats.k_mean.value, "k_mean_se": stats.k_mean.stderr,
                  "w_mean": stats.w_mean, "busy_mean": stats.busy_mean,
                  "p_hat": stats.p_hat.value}}
    if args.trace:
        result["trace"] = str(args.trace)
    return _emit(args, "simulate", inputs, result, lambda: [
        f"discipline      {args.discipline}",
        f"interarrival    {args.interarrival.describe()}",
        f"service         {args.service.describe()}",
        f"cycles          {estimate.cycles_used}",
        f"average age     {_fmt(estimate.value)} +/- {_fmt(estimate.ci_half_width)} (95% CI)",
        f"mean cycle      G={_fmt(stats.g_mean.value)} "
        f"K={_fmt(stats.k_mean.value)} p_hat={_fmt(stats.p_hat.value)}",
        *([f"trace           {args.trace}"] if args.trace else []),
    ])


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
    return _emit(args, "exact", inputs, result, lambda: [
        f"discipline      {args.discipline}",
        f"interarrival    {args.interarrival.describe()}",
        f"service         {args.service.describe()}",
        f"average age     {_fmt(estimate.value)} +/- {_fmt(estimate.ci_half_width)} (95% CI)",
    ])


def _cmd_bound(args) -> int:
    estimator = experiments.ESTIMATORS[args.kind]
    (discipline,) = estimator.calls  # one per bound
    pair, report = _estimate(args, args.kind, discipline)
    inputs = {"kind": args.kind, **pair.to_dict(), "seed": args.seed}
    result = {"value": report.value, "kind": estimator.kind.value,
              "applicability": report.applicability.value,
              "half_width": report.half_width}
    return _emit(args, "bound", inputs, result, lambda: [
        f"bound           {estimator.kind.value}",
        f"interarrival    {pair.interarrival.describe()}",
        f"service         {pair.service.describe()}",
        f"value           {_fmt(report.value)}",
        f"applicability   {report.applicability.value}",
    ])


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
    return _emit(args, "kpmf", inputs, result, lambda: [
        f"{'k':>4}  {'Pr(K=k)':>12}  {'half-width':>10}",
        *(f"{i + 1:>4}  {m.value:>12.6f}  {m.half_width:>10.2e}"
          for i, m in enumerate(res.pmf)),
        f"tail beyond k={res.k_max}: {_fmt(res.tail_mass.value)}",
    ])


def _cmd_check_properties(args) -> int:
    mean = args.dist.mean()
    if not math.isfinite(mean):  # the rule check_pair keeps for a service
        raise SystemExit(f"aoi check-properties: the law must have a finite "
                         f"mean, got {mean!r}")
    verdict = args.dist.mrl_class()
    inputs = {"dist": args.dist.to_dict()}
    result = {"verdict": verdict.value, "nbue": verdict.nbue, "mean": mean}
    return _emit(args, "check-properties", inputs, result, lambda: [
        f"distribution    {args.dist.describe()}",
        f"mean            {_fmt(mean)}",
        f"MRL verdict     {verdict.value}",
        f"NBUE            {'true' if verdict.nbue else 'false'}",
    ])


def _cmd_sweep(args) -> int:
    try:
        spec = experiments.SweepSpec.from_json_file(args.spec)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise SystemExit(f"aoi sweep: bad --spec {args.spec}: {exc}")
    with _writing(args, args.csv, args.chart):
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
    if args.chart:
        result["chart"] = str(args.chart)

    def report():
        lines = [f"sweep           {spec.name}",
                 f"{'param':>10}  {'estimator':<10}  {'value':>12}  {'ci':>10}  applicability"]
        for r in result_obj.rows:
            value = "divergent" if r.value is None else _fmt(r.value)
            ci = "" if r.ci is None else _fmt(r.ci)
            lines.append(f"{r.param:>10.4g}  {r.estimator:<10}  {value:>12}  "
                         f"{ci:>10}  {r.applicability}")
        lines.append(f"csv             {args.csv}")
        if args.chart:
            lines.append(f"chart           {args.chart}")
        return lines
    return _emit(args, "sweep", inputs, result, report)


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
    args = _parse(argv)
    try:
        args.seed = _resolve_seed(args)
        if hasattr(args, "mc_samples") and args.mc_samples < 10_000:
            # checked, as --seed is, though no estimator reads it
            raise SystemExit(f"aoi {args.command}: mc_samples must be >= "
                             f"10000, got {args.mc_samples}")
        return _COMMANDS[args.command](args)
    except AoiError as exc:
        name = type(exc).__name__
        if getattr(args, "as_json", False):
            payload = {"command": args.command, "error": name,
                       "message": str(exc)}
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # every one raised here is a usage message
        print(exc.code, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
