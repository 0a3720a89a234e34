"""Exact ages and Corollary-1 bounds against closed forms, without QUADPACK.

With exponential arrivals the dropping record is closed-form for every
service law, and the ages and bounds are checked against the M/G/1/1
formulas written out below, sharing no code with ``aoi``.  With
exponential service at heavy load, the G/M/1/1 references come from
mpmath.

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

import mpmath
import numpy as np
import pytest

from aoi.analytic import Pair, exact_age
from aoi.bounds import corollary_one, mg11_ordering_bound
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, ShiftedExponential, Uniform)
from aoi.errors import TruncationNotReached
from aoi.sim import Discipline
from test_distributions import ALL_KINDS, RESCALED, mp_laplace

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


# ------------------------------------------ heavy load: p = 1 - L_Y(mu) small

@pytest.mark.parametrize("mu", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("y", [Uniform(0.0, 2.0), Erlang(2, 2.0),
                               Hyperexponential((0.5, 0.5), (0.5, 2.0))],
                         ids=lambda d: d.kind)
def test_gm_dropping_at_heavy_load_keeps_its_precision(y, mu):
    # p = 1 - L_Y(mu) is about mu E[Y]: formed by subtraction it would
    # keep only -log10(mu) fewer digits, and the age E[Y^2]/(2E[Y]) +
    # E[Y exp(-mu Y)]/p + 1/mu, about 2/mu, would move by as many.
    # Corollary 1, E[Y^2]/(2E[Y]) + E[Y] (1 - p)/p + 1/mu, has half-width
    # 0 and so must hold four machine epsilons.
    pair = Pair(y, Exponential(mu))
    with mpmath.workdps(60):
        ell = mp_laplace(y, mu)
        slope = mpmath.diff(lambda t: mp_laplace(y, t), mu)
        head = mpmath.mpf(y.second_moment()) / (2 * mpmath.mpf(y.mean()))
        est = exact_age(pair, DROPPING)
        assert_covers(est.value, est.ci_half_width,
                      float(head - slope / (1 - ell) + 1 / mpmath.mpf(mu)))
        report = corollary_one(pair, DROPPING)
        assert report.half_width == 0.0
        assert_covers(report.value, 0.0, float(
            head + y.mean() * ell / (1 - ell) + 1 / mpmath.mpf(mu)))


# ------------------------------- exponential arrivals: the closed-form record
#
# With arrivals at rate lam, K - 1 is Poisson(lam S) given S: the dropping
# age is the M/G/1/1 one, E[(Y+S)^2] / (2 E[Y+S]) + E[S], and Corollary 1
# reads E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K]) - 1/2) + E[S] with
# E[K] = 1 + lam E[S] and E[K^2] = 1 + 3 lam E[S] + lam^2 E[S^2].

def mg11_age(lam, s):
    y_mean, y_second = 1.0 / lam, 2.0 / lam**2
    return ((y_second + 2.0 * y_mean * s.mean() + s.second_moment())
            / (2.0 * (y_mean + s.mean())) + s.mean())


def poisson_corollary_one(lam, s):
    k_mean = 1.0 + lam * s.mean()
    k_second = 1.0 + 3.0 * lam * s.mean() + lam**2 * s.second_moment()
    return 1.0 / lam + (k_second / (2.0 * k_mean) - 0.5) / lam + s.mean()


SCALES = [1e-6, 1.0, 1e6]


@pytest.mark.parametrize("rate", [0.5, 2.0])
@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_exponential_arrivals_take_the_closed_form_record(s, c, rate):
    lam, service = rate / c, RESCALED[s.kind](s, c)
    pair = Pair(Exponential(lam), service)
    assert pair.cycles(DROPPING).path == "closed_form"
    est = exact_age(pair, DROPPING)
    assert (est.method, est.ci_half_width) == ("closed_form", 0.0)
    assert_covers(est.value, 0.0, mg11_age(lam, service))
    report = corollary_one(pair, DROPPING)
    assert report.half_width == 0.0
    assert_covers(report.value, 0.0, poisson_corollary_one(lam, service))


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
@pytest.mark.parametrize("y", ALL_KINDS, ids=lambda d: d.kind)
def test_mg11_is_the_matched_pairs_closed_form(y, s, c):
    arrivals, service = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    report = mg11_ordering_bound(Pair(arrivals, service))
    assert report.half_width == 0.0
    assert_covers(report.value, 0.0, mg11_age(1.0 / arrivals.mean(), service))


@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_closed_form_record_past_the_float_range_is_not_reached(s):
    # E[S^2] overflows at c = 1e300: a domain error, not an infinite age.
    pair = Pair(Exponential(1.0), RESCALED[s.kind](s, 1e300))
    for run in (lambda: exact_age(pair, DROPPING),
                lambda: corollary_one(pair, DROPPING)):
        with pytest.raises(TruncationNotReached, match="overflows"):
            run()
