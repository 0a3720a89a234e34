"""Exact ages and Corollary-1 bounds against closed forms, without QUADPACK.

Where one law of a pair is exponential, p, the crossing term and the
completed-service term follow from the other law's Laplace transform L and
its derivative L', elementary for the E, SE, D, U, Erlang and H2 families:

- G/M (service rate mu): p = 1 - L_Y(mu), E[Y Pr(S > Y)] = -L_Y'(mu), and
  E[S | S <= Y] = 1/mu - E[Y Pr(S > Y)]/p, so the preemptive age is
  E[Y^2]/(2E[Y]) + 1/mu.
- M/G preemption (arrival rate lam): p = L_S(lam),
  E[S | S <= Y] = -L_S'(lam)/L_S(lam) and
  E[Y Pr(S > Y)] = L_S'(lam) + (1 - L_S(lam))/lam.

Every reported value must lie within its half-width, plus four machine
epsilons of the reference for the arithmetic that follows the integrals.
"""

import math

import numpy as np
import pytest

from aoi.analytic import Pair, exact_age
from aoi.bounds import corollary_one
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, ShiftedExponential, Uniform)
from aoi.sim import Discipline

DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION
EPS = np.finfo(float).eps

LAWS = [Exponential(0.7), ShiftedExponential(1.5, 0.4), Deterministic(1.2),
        Uniform(0.3, 2.1), Erlang(3, 2.5),
        Hyperexponential((0.3, 0.7), (0.4, 3.0))]


def laplace(law, s):
    """(L(s), L'(s)) of ``law`` in closed form."""
    if isinstance(law, Exponential):
        r = law.rate
        return r / (r + s), -r / (r + s) ** 2
    if isinstance(law, ShiftedExponential):
        r, d = law.rate, law.shift
        shift = math.exp(-s * d)
        return shift * r / (r + s), -d * shift * r / (r + s) - shift * r / (r + s) ** 2
    if isinstance(law, Deterministic):
        return math.exp(-s * law.value), -law.value * math.exp(-s * law.value)
    if isinstance(law, Uniform):
        a, b = law.lower, law.upper
        value = (math.exp(-s * a) - math.exp(-s * b)) / (s * (b - a))
        slope = (b * math.exp(-s * b) - a * math.exp(-s * a)) / (b - a)
        return value, (slope - value) / s
    if isinstance(law, Erlang):
        value = (law.rate / (law.rate + s)) ** law.shape
        return value, -law.shape * value / (law.rate + s)
    if isinstance(law, Hyperexponential):
        terms = [(w * r / (r + s), w * r / (r + s) ** 2)
                 for w, r in zip(law.weights, law.rates)]
        return sum(t[0] for t in terms), -sum(t[1] for t in terms)
    raise TypeError(law)


def assert_covers(value, half_width, reference):
    assert abs(value - reference) <= half_width + 4.0 * EPS * abs(reference), \
        (value, half_width, reference)


@pytest.mark.parametrize("mu", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("y", LAWS, ids=lambda d: d.kind)
def test_gm_pairs_match_closed_forms(y, mu):
    pair = Pair(y, Exponential(mu))
    laplace_y, slope = laplace(y, mu)
    p, crossing = 1.0 - laplace_y, -slope
    head = y.second_moment() / (2.0 * y.mean())
    tail = y.mean() * (1.0 - p) / p  # E[Y] (E[K^2]/(2E[K]) - 1/2)
    completed = 1.0 / mu - crossing / p
    assert pair.p.half_width == 0.0  # 1 - L_Y(mu), not integrated
    assert_covers(*pair.p, p)
    est = exact_age(pair, DROPPING)
    assert_covers(est.value, est.ci_half_width, head + crossing / p + 1.0 / mu)
    est = exact_age(pair, PREEMPTION)
    assert_covers(est.value, est.ci_half_width, head + 1.0 / mu)
    for discipline, service in ((DROPPING, 1.0 / mu),
                                (PREEMPTION, completed)):
        report = corollary_one(pair, discipline)
        assert_covers(report.value, report.half_width, head + tail + service)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", LAWS, ids=lambda d: d.kind)
def test_mg_preemption_matches_closed_forms(s, lam):
    pair = Pair(Exponential(lam), s)
    p, slope = laplace(s, lam)
    crossing = slope + (1.0 - p) / lam
    completed = -slope / p
    assert_covers(*pair.p, p)
    assert_covers(*pair.crossing, crossing)
    assert_covers(*pair.completed_service, completed)
    est = exact_age(pair, PREEMPTION)
    assert_covers(est.value, est.ci_half_width,
                  1.0 / lam + crossing / p + completed)
    report = corollary_one(pair, PREEMPTION)
    assert_covers(report.value, report.half_width,
                  1.0 / lam + (1.0 - p) / (lam * p) + completed)
