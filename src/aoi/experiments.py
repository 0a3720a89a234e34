"""Parameter-sweep harness comparing simulation, exact formulas and bounds.

A sweep fixes the service law and a template for the interarrival law with
one swept parameter, then evaluates a chosen set of estimators at every
grid point.  Results land in a flat row table, which :func:`emit_csv`
writes as CSV (``param,estimator,value,ci,applicability``) and
:func:`emit_chart` draws as an SVG line chart with confidence bands; both
are outputs only, and nothing here reads them back.  Per-point simulation
seeds derive from ``(base_seed, point_index)``, so appending grid points
never perturbs existing ones, and identical specs reproduce byte-identical
outputs; the other estimators read no seed.

Estimator tags: ``simulate`` and the tags of :data:`ESTIMATORS`, the one
table that says which call computes each exact age and bound, for which
discipline, under which label and under which precondition.  The CLI's
``exact`` and ``bound`` subcommands dispatch through the same table.
Points where an estimator raises a domain error are recorded as divergent
rather than aborting the sweep.
"""

from __future__ import annotations

import csv
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from . import analytic, bounds
from .analytic import Pair
from .distributions import Distribution, MrlVerdict, from_dict
from .errors import AoiError
from .sim import (MAX_CYCLES, AgeEstimate, Discipline, SimConfig, integer,
                  run_simulation, seed64)

__all__ = [
    "Estimator",
    "ESTIMATORS",
    "require",
    "point_seed",
    "evaluate_point",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "emit_csv",
    "emit_chart",
]

CSV_HEADER = ("param", "estimator", "value", "ci", "applicability")

_Call = Callable[[Pair], Union[AgeEstimate, bounds.BoundReport]]


@dataclass(frozen=True)
class Estimator:
    """One tag of :data:`ESTIMATORS`: its call on a :class:`Pair` for
    each discipline it applies to, the label of its bound (``None`` for an
    exact age), and whether it needs an exponential service law."""

    calls: Mapping[Discipline, _Call]
    kind: Optional[bounds.BoundKind] = None
    exponential_service: bool = False


# The calls look up ``analytic.*`` and ``bounds.*`` when they run, not when
# this table is built, so a swapped module attribute (a tracing wrapper,
# say) is the one called.  corollary1 and gm11 are one formula: gm11 is
# its label at exponential service, where K is geometric.
_D, _P = Discipline.DROPPING, Discipline.PREEMPTION
_K = bounds.BoundKind
ESTIMATORS: Mapping[str, Estimator] = {
    "exact": Estimator({_D: lambda pair: analytic.exact_age(pair, _D),
                        _P: lambda pair: analytic.exact_age(pair, _P)}),
    "corollary1": Estimator({_D: lambda pair: bounds.corollary_one(pair, _D)},
                            _K.CorollaryOneDropping),
    "gm11": Estimator({_D: lambda pair: bounds.corollary_one(pair, _D)},
                      _K.GM11, exponential_service=True),
    "mg11": Estimator({_D: lambda pair: bounds.mg11_ordering_bound(pair)},
                      _K.MG11Ordering),
    "corollary2": Estimator({_P: lambda pair: bounds.corollary_one(pair, _P)},
                            _K.CorollaryTwoPreemption),
}


def require(tag: str, discipline: Discipline, service: Distribution) -> None:
    """Raise ``ValueError`` naming ``tag`` unless :data:`ESTIMATORS` can run
    it for this discipline and service law."""
    estimator = ESTIMATORS.get(tag)
    if estimator is None:
        raise ValueError(f"unknown estimator tag {tag!r}")
    if discipline not in estimator.calls:
        only = "/".join(d.value for d in estimator.calls)
        raise ValueError(f"estimator {tag!r} applies to {only} only")
    exponential = service.mrl_class() is MrlVerdict.CONSTANT  # E(r) alone
    if estimator.exponential_service and not exponential:
        raise ValueError(f"{tag} needs an exponential service law")


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep of the interarrival law."""

    name: str
    discipline: Discipline
    interarrival_template: Mapping[str, object]
    swept_param: str
    grid: tuple[float, ...]
    service: Distribution
    estimators: tuple[str, ...]
    sim_cycles: int = 20_000
    base_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        grid = tuple(self.grid)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real)
               for v in grid):  # JSON true is 1
            raise ValueError(f"grid must hold numbers, got {self.grid!r}")
        if not all(abs(v) <= sys.float_info.max for v in grid):  # nan, inf, 10**400
            raise ValueError(f"grid must hold finite numbers, got {self.grid!r}")
        if isinstance(self.estimators, str):
            raise ValueError("estimators must be a list of tags, "
                             f"got {self.estimators!r}")
        object.__setattr__(self, "discipline", Discipline(self.discipline))
        object.__setattr__(self, "grid", tuple(float(v) for v in grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "interarrival_template",
                           dict(self.interarrival_template))
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        for tag in self.estimators:
            if tag != "simulate":
                require(tag, self.discipline, self.service)
        if self.swept_param in self.interarrival_template:
            raise ValueError(f"swept parameter {self.swept_param!r} must not "
                             "appear in the template")
        for name in ("sim_cycles", "base_seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if not 2 <= self.sim_cycles <= MAX_CYCLES:
            raise ValueError(f"sim_cycles must be >= 2 and at most "
                             f"{MAX_CYCLES}, got {self.sim_cycles}")
        seed64("base_seed", self.base_seed)
        for value in self.grid:  # every point's pair, before any runs
            Pair(self.point_distribution(value), self.service)

    def point_distribution(self, value: float) -> Distribution:
        spec = dict(self.interarrival_template)
        spec[self.swept_param] = value
        return from_dict(spec)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """The spec a sweep JSON object holds, its template under
        ``interarrival``: a missing key without a default raises
        ``ValueError`` naming it; a key it does not read is ignored."""
        try:
            return cls(
                name=data["name"],
                discipline=Discipline(data["discipline"]),
                interarrival_template=data["interarrival"],
                swept_param=data["swept_param"],
                grid=data["grid"],
                service=from_dict(data["service"]),
                estimators=data["estimators"],
                **{k: data[k] for k in ("sim_cycles", "base_seed") if k in data},
            )
        except KeyError as exc:
            raise ValueError(f"sweep spec is missing key {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "SweepSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, estimator) cell; ``value is None`` marks a
    divergent point."""

    param: float
    estimator: str
    value: Optional[float]
    ci: Optional[float]
    applicability: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def point_seed(base_seed: int, index: int) -> int:
    """The simulation seed of a grid point, stable in the point index."""
    ss = np.random.SeedSequence((base_seed, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def evaluate_point(discipline: Discipline, interarrival: Distribution,
                   service: Distribution, estimators: Sequence[str],
                   param: float, sim_cycles: int,
                   sim_seed: Optional[int]) -> list[SweepRow]:
    """One row per estimator at one grid point: ``simulate`` runs
    ``sim_cycles`` cycles from ``sim_seed`` (None where no ``simulate``
    tag reads it), every other tag its
    :data:`ESTIMATORS` call on the point's one :class:`Pair`, so the tags
    share its primitives.  A domain error marks its cell divergent."""
    pair = Pair(interarrival, service)
    rows = []
    for tag in estimators:
        try:
            if tag == "simulate":
                result, _ = run_simulation(SimConfig(
                    interarrival=interarrival, service=service,
                    discipline=discipline, target_cycles=sim_cycles,
                    seed=sim_seed))
            else:
                result = ESTIMATORS[tag].calls[discipline](pair)
        except AoiError:
            rows.append(SweepRow(param, tag, None, None))
            continue
        if isinstance(result, bounds.BoundReport):
            rows.append(SweepRow(param, tag, result.value, result.half_width,
                                 result.applicability.value))
        else:
            rows.append(SweepRow(param, tag, result.value, result.ci_half_width))
    return rows


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested estimator at every grid point.  A point is
    seeded only for a ``simulate`` row, so a sweep without one loads no
    ``numpy.random``."""
    seeded = "simulate" in spec.estimators
    rows: list[SweepRow] = []
    for index, value in enumerate(spec.grid):
        rows += evaluate_point(spec.discipline, spec.point_distribution(value),
                               spec.service, spec.estimators, value,
                               spec.sim_cycles,
                               point_seed(spec.base_seed, index) if seeded else None)
    return SweepResult(rows=tuple(rows))


def emit_csv(result: SweepResult, path) -> None:
    """Write ``param,estimator,value,ci,applicability`` rows; floats use
    ``repr`` so re-reading reproduces them exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in result.rows:
            writer.writerow([
                repr(r.param),
                r.estimator,
                "divergent" if r.value is None else repr(r.value),
                "" if r.ci is None else repr(r.ci),
                r.applicability,
            ])


# ----------------------------------------------------------------------
# SVG rendering. Hand-rolled so identical inputs give identical bytes.

_PALETTE = {
    "simulate": "#1f77b4",
    "exact": "#d62728",
    "corollary1": "#2ca02c",
    "gm11": "#9467bd",
    "mg11": "#ff7f0e",
    "corollary2": "#8c564b",
}
_W, _H = 840, 520
_ML, _MR, _MT, _MB = 72, 28, 46, 54


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _series(result: SweepResult) -> dict[str, list[SweepRow]]:
    out: dict[str, list[SweepRow]] = {}
    for r in result.rows:
        out.setdefault(r.estimator, []).append(r)
    return out


def _scales(series: Mapping[str, list[SweepRow]]):
    xs = [r.param for rows in series.values() for r in rows]
    ys, bands = [], []
    for rows in series.values():
        for r in rows:
            if r.value is not None:
                ys.append(r.value)
                if r.ci:
                    bands.extend((r.value - r.ci, r.value + r.ci))
    ys.extend(bands)
    if not xs:
        raise ValueError("cannot chart an empty sweep result")
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        pad = max(abs(x_lo) * 0.5, 0.5)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if not ys:
        y_lo, y_hi = 0.0, 1.0
    else:
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            pad = max(abs(y_lo) * 0.1, 0.5)
            y_lo, y_hi = y_lo - pad, y_hi + pad
        else:
            pad = 0.06 * (y_hi - y_lo)
            y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    return sx, sy, (x_lo, x_hi), (y_lo, y_hi)


def _finite_segments(rows: Sequence[SweepRow]):
    seg: list[SweepRow] = []
    for r in rows:
        if r.value is None:
            if seg:
                yield seg
            seg = []
        else:
            seg.append(r)
    if seg:
        yield seg


def _local_minimum(rows: Sequence[SweepRow]) -> Optional[SweepRow]:
    pts = [r for r in rows if r.value is not None]
    if len(pts) < 3:
        return None
    values = [r.value for r in pts]
    i = int(np.argmin(values))
    if 0 < i < len(pts) - 1 and values[0] > values[i] < values[-1]:
        return pts[i]
    return None


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, then ``>``, then ``<``
    replaced by their entities (``xml.sax.saxutils.escape``'s string)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``text`` escaped, with newline, carriage return and tab as character
    references, in quotes (``xml.sax.saxutils.quoteattr``'s string): double
    quotes, else single ones if it holds a double quote, else double ones
    with ``&quot;`` if it holds both."""
    text = (_escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
            .replace("\t", "&#9;"))
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def emit_chart(result: SweepResult, path, title: str = "",
               xlabel: str = "swept parameter") -> None:
    """Write the sweep to ``path`` as an SVG line chart with CI bands, its
    bytes a function of the arguments alone; an interior minimum of any
    series gets a marker with id ``local-minimum-<estimator>``.  The title,
    axis label and legend text nodes have ``&``, ``<`` and ``>`` escaped;
    the marker id is quoted as :func:`_quoteattr` quotes it.  Each parses
    back to the text given, except that XML reads a carriage return in a
    text node as a newline."""
    series = _series(result)
    sx, sy, (x_lo, x_hi), (y_lo, y_hi) = _scales(series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(f'<text x="{_W // 2}" y="26" text-anchor="middle" '
                     f'font-size="16">{_escape(title)}</text>')
    for tick in np.linspace(x_lo, x_hi, 5):
        x = sx(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" '
                     f'y2="{_H - _MB + 5}" stroke="#444444"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 20}" '
                     f'text-anchor="middle" font-size="11">{tick:.4g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        y = sy(tick)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" '
                     f'y2="{_fmt(y)}" stroke="#444444"/>')
        parts.append(f'<text x="{_ML - 9}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-size="11">{tick:.4g}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 14}" text-anchor="middle" '
                 f'font-size="13">{_escape(xlabel)}</text>')
    parts.append(f'<text x="20" y="{_H // 2}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 20 {_H // 2})">'
                 'average age</text>')

    legend_y = _MT + 14
    for tag, rows in series.items():
        color = _PALETTE.get(tag, "#555555")
        banded = [r for r in rows if r.value is not None and r.ci]
        if len(banded) >= 2:
            upper = " ".join(f"{_fmt(sx(r.param))},{_fmt(sy(r.value + r.ci))}"
                             for r in banded)
            lower = " ".join(f"{_fmt(sx(r.param))},{_fmt(sy(r.value - r.ci))}"
                             for r in reversed(banded))
            parts.append(f'<polygon points="{upper} {lower}" fill="{color}" '
                         f'fill-opacity="0.15" stroke="none"/>')
        for seg in _finite_segments(rows):
            if len(seg) == 1:
                r = seg[0]
                parts.append(f'<circle cx="{_fmt(sx(r.param))}" '
                             f'cy="{_fmt(sy(r.value))}" r="3.5" fill="{color}"/>')
            else:
                pts = " ".join(f"{_fmt(sx(r.param))},{_fmt(sy(r.value))}"
                               for r in seg)
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="{color}" stroke-width="1.8"/>')
        minimum = _local_minimum(rows)
        if minimum is not None:
            parts.append(
                f'<circle id={_quoteattr("local-minimum-" + tag)} '
                f'cx="{_fmt(sx(minimum.param))}" cy="{_fmt(sy(minimum.value))}" '
                f'r="5" fill="#ffdd33" stroke="black"/>')
        parts.append(f'<rect x="{_W - _MR - 150}" y="{legend_y - 9}" '
                     f'width="18" height="4" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 126}" y="{legend_y - 3}" '
                     f'font-size="12">{_escape(tag)}</text>')
        legend_y += 18
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
