#!/usr/bin/env python3
"""Regenerate ``reference.json``, the oracle's table of reference values.

Run from the repository root:  python3 perfbench/make_reference.py

It imports nothing from ``aoi``.  Dropping references come from the
benchmark's own Monte Carlo partial-sum walk with many more replicates
than the ops use, and carry 95% half-widths.  Preemption references come
from 30-digit ``mpmath`` quadrature of the paper's formula, with the
integrator's error estimate as half-width.  All values are at time scale
1; the oracle multiplies by ``c``.  The script also checks the oracle's
closed forms (M/M, G/M, D/G) against its own walk.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import laws  # noqa: E402
import oracle  # noqa: E402
import workloads as wl  # noqa: E402

Z95 = 1.959963984540054
REPLICATES = 4_000_000
CHUNK = 250_000
SEED = 20180531
NEGLIGIBLE_TAIL = 1e-18


def walk(y: dict, s: dict, rng: np.random.Generator) -> dict:
    """Dropping references for one pair from REPLICATES walk replicates.

    Per replicate, with A_1 = 0 and A_k the sum of k-1 gaps:
    count = sum_k Pr(S > A_k), asum = sum_k A_k Pr(S > A_k),
    ksq = sum_k (2k-1) Pr(S > A_k), and Pr(K = k) = Pr(S > A_k) - Pr(S > A_{k+1}).
    """
    kmax = wl.K_MAX
    names = ["count", "asum", "ksq", *(f"p{k}" for k in range(1, kmax + 1)), "tail"]
    first = np.zeros(len(names))
    cross = np.zeros((len(names), len(names)))
    for _ in range(REPLICATES // CHUNK):
        n = CHUNK
        cols = np.zeros((len(names), n))
        cols[0] = 1.0
        cols[2] = 1.0
        partial = np.zeros(n)
        prev = np.ones(n)
        active = np.arange(n)
        k = 1
        while active.size:
            k += 1
            partial[active] += laws.sample(y, rng, active.size)
            tail = laws.ccdf(s, partial[active])
            cols[0, active] += tail
            cols[1, active] += partial[active] * tail
            cols[2, active] += (2 * k - 1) * tail
            if k <= kmax + 1:
                cols[2 + k - 1, active] = prev[active] - tail
                prev[active] = tail
                if k == kmax + 1:
                    cols[-1, active] = tail
            else:
                active = active[tail > NEGLIGIBLE_TAIL]
            if k > 100_000:
                raise RuntimeError(f"walk did not end for {laws.name(y)}/{laws.name(s)}")
        first += cols.sum(axis=1)
        cross += cols @ cols.T
    n = REPLICATES
    m = first / n
    cov = (cross / n - np.outer(m, m)) * n / (n - 1)
    ix = {nm: i for i, nm in enumerate(names)}

    def hw(var):
        return Z95 * math.sqrt(max(var, 0.0) / n)

    c1, c2, ca = ix["count"], ix["ksq"], ix["asum"]
    head = laws.second_moment(y) / (2 * laws.mean(y))
    ratio = m[ca] / m[c1]
    var_ratio = (cov[ca, ca] - 2 * ratio * cov[ca, c1] + ratio**2 * cov[c1, c1]) / m[c1] ** 2
    ey = laws.mean(y)
    bound = head + ey * (m[c2] / (2 * m[c1]) - 0.5) + laws.mean(s)
    # Delta method for the bound as a function of the means of ksq and count.
    gk2, gk1 = ey / (2 * m[c1]), -ey * m[c2] / (2 * m[c1] ** 2)
    var_bound = gk2**2 * cov[c2, c2] + 2 * gk2 * gk1 * cov[c2, c1] + gk1**2 * cov[c1, c1]
    pk = [ix[f"p{k}"] for k in range(1, kmax + 1)]
    return {
        "age": head + ratio + laws.mean(s), "age_hw": hw(var_ratio),
        "k_mean": m[c1], "k_mean_hw": hw(cov[c1, c1]),
        "k_second": m[c2], "k_second_hw": hw(cov[c2, c2]),
        "corollary1": bound, "corollary1_hw": hw(var_bound),
        "corollary1_sd": math.sqrt(max(var_bound, 0.0)),
        "pmf": [m[i] for i in pk], "pmf_hw": [hw(cov[i, i]) for i in pk],
        "tail": m[ix["tail"]], "tail_hw": hw(cov[ix["tail"], ix["tail"]]),
        "replicates": n,
    }


# -- preemption by mpmath quadrature ------------------------------------

def _pdf(law):
    k = law["kind"]
    if k == "exponential":
        r = mp.mpf(law["rate"])
        return lambda x: r * mp.exp(-r * x)
    if k == "shifted_exponential":
        r, d = mp.mpf(law["rate"]), mp.mpf(law["shift"])
        return lambda x: r * mp.exp(-r * (x - d)) if x >= d else mp.mpf(0)
    if k == "uniform":
        a, b = mp.mpf(law["lower"]), mp.mpf(law["upper"])
        return lambda x: 1 / (b - a) if a <= x <= b else mp.mpf(0)
    if k == "rayleigh":
        s2 = mp.mpf(law["scale"]) ** 2
        return lambda x: x / s2 * mp.exp(-x * x / (2 * s2))
    if k == "erlang":
        n, r = law["shape"], mp.mpf(law["rate"])
        return lambda x: r**n * x ** (n - 1) * mp.exp(-r * x) / mp.factorial(n - 1)
    if k == "hyperexponential":
        ws = [mp.mpf(w) for w in law["weights"]]
        rs = [mp.mpf(r) for r in law["rates"]]
        return lambda x: sum(w * r * mp.exp(-r * x) for w, r in zip(ws, rs))
    raise ValueError(k)


def _ccdf(law, inclusive=False):
    k = law["kind"]
    if k == "exponential":
        r = mp.mpf(law["rate"])
        return lambda x: mp.exp(-r * max(x, 0))
    if k == "shifted_exponential":
        r, d = mp.mpf(law["rate"]), mp.mpf(law["shift"])
        return lambda x: mp.exp(-r * max(x - d, 0))
    if k == "deterministic":
        v = mp.mpf(law["value"])
        if inclusive:
            return lambda x: mp.mpf(1) if x <= v else mp.mpf(0)
        return lambda x: mp.mpf(1) if x < v else mp.mpf(0)
    if k == "uniform":
        a, b = mp.mpf(law["lower"]), mp.mpf(law["upper"])
        return lambda x: min(max((b - x) / (b - a), mp.mpf(0)), mp.mpf(1))
    if k == "rayleigh":
        s2 = mp.mpf(law["scale"]) ** 2
        return lambda x: mp.exp(-max(x, 0) ** 2 / (2 * s2))
    if k == "erlang":
        n, r = law["shape"], mp.mpf(law["rate"])
        return lambda x: mp.exp(-r * max(x, 0)) * sum(
            (r * max(x, 0)) ** i / mp.factorial(i) for i in range(n))
    if k == "hyperexponential":
        ws = [mp.mpf(w) for w in law["weights"]]
        rs = [mp.mpf(r) for r in law["rates"]]
        return lambda x: sum(w * mp.exp(-r * max(x, 0)) for w, r in zip(ws, rs))
    raise ValueError(k)


def _kinks(law):
    k = law["kind"]
    if k == "shifted_exponential":
        return [law["shift"]]
    if k == "uniform":
        return [law["lower"], law["upper"]]
    if k == "deterministic":
        return [law["value"]]
    return []


def _expect(law, fn, extra=()):
    """(E[fn(X)], error estimate) by piecewise tanh-sinh quadrature."""
    if law["kind"] == "deterministic":
        return fn(mp.mpf(law["value"])), mp.mpf(0)
    pdf = _pdf(law)
    lo = law.get("shift", law.get("lower", 0))
    hi = law["upper"] if law["kind"] == "uniform" else mp.inf
    cuts = sorted({mp.mpf(lo), *(mp.mpf(p) for p in (*_kinks(law), *extra)
                                 if lo < p < hi)})
    value, err = mp.quad(lambda x: fn(x) * pdf(x), [*cuts, hi], error=True)
    return value, err


def preemption(y: dict, s: dict) -> dict:
    """age = E[Y^2]/2E[Y] + E[Y Pr(S>Y)]/p + E[S Pr(Y>=S)]/p and the
    Corollary 2 bound E[Y^2]/2E[Y] + E[Y](1-p)/p + E[S Pr(Y>=S)]/p,
    with p = 1 - E[Pr(S > Y)]."""
    mp.mp.dps = 30
    s_tail = _ccdf(s)
    y_tail = _ccdf(y, inclusive=True)
    q, e1 = _expect(y, s_tail, _kinks(s))
    mid, e2 = _expect(y, lambda x: x * s_tail(x), _kinks(s))
    num, e3 = _expect(s, lambda x: x * y_tail(x), _kinks(y))
    p = 1 - q
    head = mp.mpf(laws.second_moment(y)) / (2 * mp.mpf(laws.mean(y)))
    age = head + mid / p + num / p
    bound = head + mp.mpf(laws.mean(y)) * q / p + num / p
    err = (e1 + e2 + e3) * (1 + age) / p
    return {"age": float(age), "age_hw": float(err),
            "corollary2": float(bound), "corollary2_hw": float(err)}


def main():
    rng = np.random.default_rng(SEED)
    dropping, preempt = {}, {}
    walk_pairs = {wl.pair_key(y, s): (y, s)
                  for y, s in (*wl.WALK_PAIRS, wl.DEEP_PAIR, *wl.SIM_PAIRS)}
    for key, (y, s) in sorted(walk_pairs.items()):
        ref = walk(y, s, rng)
        closed = oracle.closed_form_dropping(y, s)
        if closed is not None:
            dev = abs(closed["age"] - ref["age"])
            print(f"  closed form {closed['age']:.6f} vs walk {ref['age']:.6f} "
                  f"+/- {ref['age_hw']:.1e}", file=sys.stderr)
            if dev > 4 * ref["age_hw"] + 1e-9 * closed["age"]:
                raise SystemExit(f"closed form disagrees with the walk for {key}")
        dropping[key] = ref
        print(f"dropping {key}: {ref['age']:.6f} +/- {ref['age_hw']:.1e}", file=sys.stderr)
    pre_pairs = list(wl.SIM_PAIRS)
    pre_pairs += [(y, wl.QUAD_SERVICES[i % len(wl.QUAD_SERVICES)])
                  for i, y in enumerate(wl.QUAD_LAWS)]
    sweep = wl.SWEEP_SPEC
    pre_pairs += [({**sweep["interarrival"], sweep["swept_param"]: v}, sweep["service"])
                  for v in sweep["grid"]]
    for y, s in pre_pairs:
        key = wl.pair_key(y, s)
        preempt[key] = preemption(y, s)
        print(f"preemption {key}: {preempt[key]['age']:.12f}", file=sys.stderr)
    table = {"replicates": REPLICATES, "seed": SEED, "mpmath_dps": 30,
             "dropping": dropping, "preemption": preempt}
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
