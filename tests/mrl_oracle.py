"""The grid mean-residual-life classifier, kept as a test oracle.

:func:`classify` samples m(t) = (integral of the ccdf over [t, inf)) /
ccdf(t) at ``GRID_POINTS`` evenly spaced points of [0, the
``QUANTILE_CAP`` :func:`quantile`] and grades the sampled curve:
``ConstantMRL`` when it stays within ``REL_SLACK`` times the mean,
``DMRL`` / ``IMRL`` when every step moves within that slack of one
direction, ``Inconclusive`` otherwise (or with fewer than two points).  NBUE is m(t) <= E[X] plus the
slack at every point.  The tail integrals come from QUADPACK
(``scipy.integrate.quad``) in units of the law's mean, one piece between
each pair of consecutive grid points and breakpoints, summed from the
right; at or below the support they are E[X] - t.  The library reads the
class from the law's parameters instead, so this shares no numerics with
it.
"""

import math

import numpy as np
from scipy import integrate, optimize

GRID_POINTS = 64
QUANTILE_CAP = 0.999
REL_SLACK = 1e-6


def quantile(dist, p):
    """Smallest x with Pr(X <= x) >= p: the support's lower end at p = 0
    and for a point mass, else Brent's method on the ccdf in units of the
    law's mean, over a bracket doubled until it holds the root."""
    lo, hi = dist.support()
    if p == 0.0 or lo == hi:
        return lo
    unit = dist.mean()
    right = hi / unit if math.isfinite(hi) else 1.0
    while dist.ccdf(unit * right) > 1.0 - p:
        right *= 2.0
    return unit * optimize.brentq(lambda u: dist.ccdf(unit * u) - (1.0 - p),
                                  lo / unit, right)


def tail_integrals(dist, ts):
    """The integral of the ccdf over [t, inf) for each t of the sorted ``ts``."""
    lo, hi = dist.support()
    unit = dist.mean()
    out = np.where(ts <= lo, unit - ts, 0.0)
    inner = ts[(ts > lo) & (ts < hi)]
    if inner.size == 0:
        return out
    cuts = sorted({*inner, *(p for p in dist.support() if inner[0] < p < hi), hi})
    pieces = [unit * integrate.quad(lambda u: float(dist.ccdf(unit * u)),
                                    a / unit, b / unit, epsabs=0.0,
                                    epsrel=1e-10, limit=200)[0]
              for a, b in zip(cuts[:-1], cuts[1:])]
    from_right = np.cumsum(pieces[::-1])[::-1]
    for t in inner:
        out[ts == t] = from_right[cuts.index(t)]
    return out


def grid(dist):
    """The (t, m(t)) points the verdict is read from."""
    ts = np.linspace(0.0, quantile(dist, QUANTILE_CAP), GRID_POINTS)
    tails = dist.ccdf(ts)
    ts, tails = ts[tails > 0.0], tails[tails > 0.0]
    return ts, tail_integrals(dist, ts) / tails


def classify(dist):
    """(verdict, nbue): the verdict is an ``MrlVerdict`` value or
    ``"Inconclusive"``."""
    slack = REL_SLACK * dist.mean()
    _, values = grid(dist)
    diffs = np.diff(values)
    if values.size < 2:
        verdict = "Inconclusive"
    elif values.max() - values.min() <= slack:
        verdict = "ConstantMRL"
    elif np.all(diffs <= slack):
        verdict = "DMRL"
    elif np.all(diffs >= -slack):
        verdict = "IMRL"
    else:
        verdict = "Inconclusive"
    return verdict, bool(np.all(values <= dist.mean() + slack))
