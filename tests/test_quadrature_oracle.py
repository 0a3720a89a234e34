"""``expect`` against QUADPACK (``scipy.integrate.quad``) as the oracle.

The six continuous families, and Erlang of shape 1, at time scales 1e-6,
1 and 1e6, against smooth integrands and against service ccdfs whose kinks
are passed as extra breakpoints.  The oracle integrates each piece between
breakpoints in units of the law's mean at epsrel 1e-12.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from aoi.distributions import (Deterministic, Erlang, ShiftedExponential,
                               Uniform, expect)
from test_distributions import CONTINUOUS, RESCALED

SCALES = (1e-6, 1.0, 1e6)
SERVICES = (Deterministic(1.5), ShiftedExponential(2.0, 0.2), Uniform(0.5, 2.0))


def _integrands(c):
    """(name, array function, extra breakpoints) at time scale c."""
    out = [("one", lambda x: np.ones_like(x), ()),
           ("x", lambda x: x, ()),
           ("exp(-sx)", lambda x: np.exp(-1.3 / c * x), ())]
    for service in SERVICES:
        scaled = RESCALED[service.kind](service, c)
        out.append((f"ccdf {service.kind}", scaled.ccdf, scaled.breakpoints()))
    return out


def _oracle(dist, fn, extra):
    lo, hi = dist.support()
    unit = dist.mean()
    cuts = sorted({lo, hi, *(p for p in (*dist.breakpoints(), *extra)
                             if lo < p < hi)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        value, _ = integrate.quad(
            lambda u: float(fn(np.array([unit * u]))[0] * dist.pdf(unit * u)),
            a / unit, b / unit, epsabs=0.0, epsrel=1e-12, limit=200)
        total += unit * value
    return total


# Erlang of shape 1 takes the exponential branch of the Erlang density.
LAWS = ([pytest.param(d, id=d.kind) for d in CONTINUOUS]
        + [pytest.param(Erlang(1, 2.0), id="erlang-shape1")])


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("law", LAWS)
def test_expect_matches_quadpack(law, c):
    dist = RESCALED[law.kind](law, c)
    for name, fn, extra in _integrands(c):
        value, err = expect(dist, fn, extra_breakpoints=extra)
        oracle = _oracle(dist, fn, extra)
        actual = abs(value - oracle)
        assert actual <= err + 1e-12 * abs(oracle), name
        assert err >= actual, name
        assert math.isfinite(err)
