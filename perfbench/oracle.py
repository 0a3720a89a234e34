"""Reference answers for every op and the rule that judges them.

Closed forms where the paper gives one: M/M dropping 1/l + 2/m - 1/(l+m),
M/M preemption 1/l + 1/m, G/M dropping
E[Y^2]/2E[Y] + E[Y exp(-mY)] / (1 - L(m)) + 1/m with K geometric, and D/G
dropping as an exact finite sum.  Everything else comes from
``reference.json`` (see ``make_reference.py``), stored at time scale 1 and
multiplied by the op's scale c.

A value fails when it lies farther from its reference than three times the
combined 95% half-width plus 1e-6 relative (1e-6 absolute for
probabilities).  An unconditional bound also fails when it lies below the
exact reference by more than that.  A label fails when it differs from the
law's known class.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

import laws
import workloads as wl

Z95 = 1.959963984540054
REL_TOL = 1e-6
_D_TERMS = 20_000  # D/G sums stop where the service tail is exactly 0 or tiny


@functools.cache
def _table() -> dict:
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _is_exp(law):
    return law["kind"] == "exponential"


def closed_form_dropping(y: dict, s: dict):
    """Exact dropping age, K moments and K pmf, or None without a closed form."""
    head = laws.second_moment(y) / (2 * laws.mean(y))
    kmax = wl.K_MAX
    if _is_exp(s):
        mu = s["rate"]
        if _is_exp(y):
            lam = y["rate"]
            age = 1 / lam + 2 / mu - 1 / (lam + mu)
        else:
            age = head + laws.laplace_neg_derivative(y, mu) / (1 - laws.laplace(y, mu)) + 1 / mu
        el = laws.laplace(y, mu)
        p = 1 - el
        pmf = [el ** (k - 1) * p for k in range(1, kmax + 1)]
        return {"age": age, "k_mean": 1 / p, "k_second": (2 - p) / p**2,
                "pmf": pmf, "tail": el**kmax}
    if y["kind"] == "deterministic":
        d = y["value"]
        j = np.arange(1, _D_TERMS + 1)
        tails = laws.ccdf(s, j * d)
        k_mean = 1 + tails.sum()
        age = d / 2 + float((j * d * tails).sum()) / k_mean + laws.mean(s)
        path = np.concatenate(([1.0], tails))      # Pr(S > A_k), A_1 taken as 0
        pmf = list(path[:kmax] - path[1:kmax + 1])
        return {"age": age, "k_mean": float(k_mean),
                "k_second": float(1 + ((2 * j + 1) * tails).sum()),
                "pmf": pmf, "tail": float(path[kmax])}
    return None


def _corollary1(y, s, k_mean, k_second):
    return (laws.second_moment(y) / (2 * laws.mean(y))
            + laws.mean(y) * (k_second / (2 * k_mean) - 0.5) + laws.mean(s))


def dropping_reference(y: dict, s: dict) -> dict:
    """Dropping references with half-widths (0 for closed forms).

    ``corollary1_op_hw`` is the half-width an op with ``MC_SAMPLES``
    replicates should have; the CLI does not report one for bounds.
    """
    closed = closed_form_dropping(y, s)
    if closed is not None:
        zeros = [0.0] * wl.K_MAX
        return {**closed, "age_hw": 0.0, "pmf_hw": zeros, "tail_hw": 0.0,
                "corollary1": _corollary1(y, s, closed["k_mean"], closed["k_second"]),
                "corollary1_hw": 0.0, "corollary1_op_hw": 0.0}
    ref = dict(_table()["dropping"][wl.pair_key(y, s)])
    ref["corollary1_op_hw"] = Z95 * ref["corollary1_sd"] / math.sqrt(wl.MC_SAMPLES)
    return ref


def preemption_reference(y: dict, s: dict) -> dict:
    if _is_exp(y) and _is_exp(s):
        ref = dict(_table()["preemption"].get(wl.pair_key(y, s), {}))
        ref.update(age=1 / y["rate"] + 1 / s["rate"], age_hw=0.0)
        return ref
    return _table()["preemption"][wl.pair_key(y, s)]


class Verdict:
    """Collects the reasons an op failed; an empty list means it passed."""

    def __init__(self):
        self.reasons: list[str] = []

    def close(self, what, got, ref, hw_got=0.0, hw_ref=0.0, absolute=False):
        tol = 3 * math.hypot(hw_got, hw_ref) + REL_TOL * (1.0 if absolute else abs(ref))
        if not (isinstance(got, (int, float)) and abs(got - ref) <= tol):
            self.reasons.append(f"{what} {got!r} vs reference {ref:.9g} (tolerance {tol:.3g})")

    def at_least(self, what, got, ref, hw_got=0.0, hw_ref=0.0):
        tol = 3 * math.hypot(hw_got, hw_ref) + REL_TOL * abs(ref)
        if not got >= ref - tol:
            self.reasons.append(f"{what} {got!r} below exact reference {ref:.9g}")

    def equal(self, what, got, want):
        if got != want:
            self.reasons.append(f"{what} {got!r}, expected {want!r}")


def check(op, payload: dict) -> list[str]:
    """Reasons the op's parsed ``--json`` payload is wrong (empty if right)."""
    v = Verdict()
    ck = op.check
    kind, c = ck["kind"], ck["c"]
    res = payload["result"]
    y, s = ck.get("y"), ck.get("s")
    if kind == "exact-dropping":
        ref = dropping_reference(y, s)
        v.close("age", res["value"], ref["age"], res["ci_half_width"], ref["age_hw"])
    elif kind == "corollary1":
        ref = dropping_reference(y, s)
        v.equal("kind", res["kind"], "CorollaryOneDropping")
        v.close("bound", res["value"], ref["corollary1"], ref["corollary1_op_hw"],
                ref["corollary1_hw"])
        v.at_least("bound", res["value"], ref["age"], ref["corollary1_op_hw"], ref["age_hw"])
    elif kind == "kpmf":
        ref = dropping_reference(y, s)
        v.equal("pmf length", len(res["pmf"]), wl.K_MAX)
        for entry, p, hw in zip(res["pmf"], ref["pmf"], ref["pmf_hw"]):
            v.close(f"Pr(K={entry['k']})", entry["probability"], p, Z95 * entry["ci"],
                    hw, absolute=True)
        v.close("tail", res["tail_mass"], ref["tail"], Z95 * res["tail_mass_ci"],
                ref["tail_hw"], absolute=True)
    elif kind == "simulate":
        ref = (dropping_reference(y, s) if ck["discipline"] == "dropping"
               else preemption_reference(y, s))
        v.close("age", res["value"], ref["age"], res["ci_half_width"], ref["age_hw"])
        v.equal("cycles", res["cycles_used"], wl.CYCLES)
        if ck["traced"]:
            with open(op.outputs[0], encoding="utf-8") as fh:
                v.equal("trace header", fh.readline().strip(), "time,event,age_after_event")
    elif kind == "exact-preemption":
        ref = preemption_reference(y, s)
        v.close("age", res["value"], c * ref["age"], res["ci_half_width"], c * ref["age_hw"])
    elif kind == "corollary2":
        ref = preemption_reference(y, s)
        v.equal("kind", res["kind"], "CorollaryTwoPreemption")
        v.close("bound", res["value"], c * ref["corollary2"], 0.0, c * ref["corollary2_hw"])
        v.at_least("bound", res["value"], c * ref["age"], 0.0, c * ref["age_hw"])
    elif kind == "gm11":
        yc, mu = laws.scale(y, c), s["rate"] / c
        p = 1 - laws.laplace(yc, mu)
        head = laws.second_moment(yc) / (2 * laws.mean(yc))
        v.equal("kind", res["kind"], "GM11")
        v.close("bound", res["value"], head + laws.mean(yc) * (1 / p - 1) + 1 / mu)
        v.at_least("bound", res["value"], c * closed_form_dropping(y, s)["age"])
    elif kind == "mg11":
        ye, es = c * laws.mean(y), c * laws.mean(s)
        es2 = c * c * laws.second_moment(s)
        want = ("ReversedUnderIMRL" if laws.MRL_CLASS[y["kind"]] == "IMRL"
                else "RequiresDMRLandNBUE")
        v.close("bound", res["value"], (2 * ye * ye + 2 * ye * es + es2) / (2 * (ye + es)) + es)
        v.equal("applicability", res["applicability"], want)
    elif kind == "check-properties":
        v.equal("verdict", res["verdict"], laws.MRL_CLASS[y["kind"]])
        v.equal("nbue", res["nbue"], laws.NBUE[y["kind"]])
        v.close("mean", res["mean"], c * laws.mean(y))
    elif kind == "sweep":
        _check_sweep(v, op, res)
    return v.reasons


def _check_sweep(v: Verdict, op, res):
    spec = wl.SWEEP_SPEC
    grid = spec["grid"]
    rows = {(r["param"], r["estimator"]): r for r in res["rows"]}
    v.equal("rows", len(res["rows"]), len(grid) * len(spec["estimators"]))
    for rate in grid:
        y = {**spec["interarrival"], spec["swept_param"]: rate}
        ref = preemption_reference(y, spec["service"])
        exact, bound = rows.get((rate, "exact")), rows.get((rate, "corollary2"))
        if exact is None or bound is None:
            v.reasons.append(f"missing rows at rate {rate}")
            continue
        v.close(f"exact@{rate}", exact["value"], ref["age"], exact["ci"], ref["age_hw"])
        v.close(f"corollary2@{rate}", bound["value"], ref["corollary2"], 0.0,
                ref["corollary2_hw"])
        v.at_least(f"corollary2@{rate}", bound["value"], ref["age"], 0.0, ref["age_hw"])
    csv_path, svg_path = op.outputs
    with open(csv_path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    v.equal("csv header", table[0], ["param", "estimator", "value", "ci", "applicability"])
    written = [(float(p), e, float(val)) for p, e, val, _, _ in table[1:]]
    v.equal("csv rows", written, [(r["param"], r["estimator"], r["value"]) for r in res["rows"]])
    svg = Path(svg_path).read_text(encoding="utf-8")
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        v.reasons.append("chart is not a complete SVG document")
