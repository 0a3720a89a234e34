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

With hyperexponential service a dropping cycle draws its phase once, so
each K sum is the weighted mix of the phases' geometric ones, each phase
i a G/M pair: with p_i = 1 - L_Y(r_i) and c_i = -L_Y'(r_i),
E[K] = sum w_i/p_i, E[K^2] = sum w_i (2-p_i)/p_i^2 and the crossing sum
is sum w_i c_i/p_i^2.  Under preemption p = sum w_i p_i, the crossing
term is sum w_i c_i and E[S Pr(Y >= S)] = sum w_i (p_i + r_i L_Y'(r_i))/r_i.
These references are taken in mpmath, where the rare phases' cancellations
cost nothing.

Every reported value must lie within its half-width, plus four machine
epsilons of the reference for the arithmetic that follows the integrals.
"""

import itertools
import math
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from aoi.analytic import Pair, exact_age, k_pmf
from aoi.bounds import corollary_one, mg11_ordering_bound
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.errors import TruncationNotReached, ZeroSuccessProbability
from aoi.sim import Discipline
from test_distributions import (ALL_KINDS, RESCALED, mp_laplace,
                                mp_poisson_mix, unshifted)

DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION
EPS = np.finfo(float).eps
# The dropping records tried before the D-arrival sums and the lattice's.
PHASE_RECORDS = ("one_phase", "service_blocks", "uniformized")

LAWS = [Exponential(0.7), ShiftedExponential(1.5, 0.4), Deterministic(1.2),
        Uniform(0.3, 2.1), Erlang(3, 2.5),
        Hyperexponential((0.3, 0.7), (0.4, 3.0))]


def laplace(law, s, mp=False):
    """(L(s), L'(s)) of ``law`` in closed form; in mpmath, parameters
    included, when ``mp``."""
    num, exp = (mpmath.mpf, mpmath.exp) if mp else (float, math.exp)
    s = num(s)
    if isinstance(law, Exponential):
        r = num(law.rate)
        return r / (r + s), -r / (r + s) ** 2
    if isinstance(law, ShiftedExponential):
        r, d = num(law.rate), num(law.shift)
        shift = exp(-s * d)
        return shift * r / (r + s), -d * shift * r / (r + s) - shift * r / (r + s) ** 2
    if isinstance(law, Deterministic):
        d = num(law.value)
        return exp(-s * d), -d * exp(-s * d)
    if isinstance(law, Uniform):
        a, b = num(law.lower), num(law.upper)
        value = (exp(-s * a) - exp(-s * b)) / (s * (b - a))
        slope = (b * exp(-s * b) - a * exp(-s * a)) / (b - a)
        return value, (slope - value) / s
    if isinstance(law, Erlang):
        r = num(law.rate)
        value = (r / (r + s)) ** law.shape
        return value, -law.shape * value / (r + s)
    if isinstance(law, Hyperexponential):
        # Weights that sum to 1 in floats need not in mpmath: L(0) = 1.
        total = sum(num(w) for w in law.weights) if mp else 1.0
        terms = [(num(w) / total * num(r) / (num(r) + s),
                  num(w) / total * num(r) / (num(r) + s) ** 2)
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
    # The references in mpmath: in floats, L' + (1 - L)/lam cancels.
    pair = Pair(Exponential(lam), s)
    with mpmath.workdps(50):
        ell, slope = laplace(s, lam, mp=True)
        p, crossing = float(ell), float(slope + (1 - ell) / lam)
        completed = float(-slope / ell)
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


# ------------------------------- hyperexponential service: the phase mix

class MixReference(NamedTuple):
    dropping: float
    corollary1: float
    preemption: float
    corollary2: float


def mix_reference(y, s):
    """Both disciplines' exact ages and Corollary-1 bounds for the
    hyperexponential service ``s``, from each phase's G/M closed forms."""
    with mpmath.workdps(100):
        w = [mpmath.mpf(v) for v in s.weights]
        r = [mpmath.mpf(v) for v in s.rates]
        ell, slope = zip(*(laplace(y, x, mp=True) for x in r))
        p = [1 - v for v in ell]
        y_mean = mpmath.mpf(y.mean())
        head = mpmath.mpf(y.second_moment()) / (2 * y_mean)
        s_mean = mpmath.fsum(a / b for a, b in zip(w, r))
        k_mean = mpmath.fsum(a / b for a, b in zip(w, p))
        k_second = mpmath.fsum(a * (2 - b) / b**2 for a, b in zip(w, p))
        crossing = mpmath.fsum(-a * d / b**2 for a, b, d in zip(w, p, slope))
        q = mpmath.fsum(a * b for a, b in zip(w, p))  # preemption's p
        term = -mpmath.fsum(a * d for a, d in zip(w, slope))  # E[Y Pr(S > Y)]
        completed = mpmath.fsum(a * (b + x * d) / x for a, b, x, d
                                in zip(w, p, r, slope)) / q
        return MixReference(
            float(head + crossing / k_mean + s_mean),
            float(head + y_mean * (k_second / (2 * k_mean) - mpmath.mpf(0.5))
                  + s_mean),
            float(head + term / q + completed),
            float(head + y_mean * (1 - q) / q + completed))


def mix_pmf(lam, s, k_max):
    """Pr(K = k), k = 1..k_max, at exponential arrivals of rate ``lam``:
    sum_i w_i r_i lam^(k-1)/(lam + r_i)^k."""
    with mpmath.workdps(50):
        return [float(mpmath.fsum(w * r * mpmath.mpf(lam) ** (k - 1)
                                  / (lam + mpmath.mpf(r)) ** k
                                  for w, r in zip(s.weights, s.rates)))
                for k in range(1, k_max + 1)]


# The rare phases hold most of E[S] (E[S] = 101, E[S^2] = 2e18), then most
# of E[S^2] (E[S] = 1 + 1e-10, E[S^2] = 4), with under 1e-13 of the mass.
MIXES = [Hyperexponential((0.5, 0.5), (0.5, 2.0)),
         Hyperexponential((0.99, 0.01), (5.0, 0.05)),
         Hyperexponential((1.0 - 1e-14, 1e-14), (1.0, 1e-16)),
         Hyperexponential((1.0, 1e-20), (1.0, 1e-10))]
MIX_IDS = ["even", "skewed", "mean-in-tail", "second-in-tail"]


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("s", MIXES, ids=MIX_IDS)
@pytest.mark.parametrize("y", LAWS, ids=lambda d: d.kind)
def test_hyperexponential_service_is_the_phase_mix(y, s, c):
    arrivals, service = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    pair = Pair(arrivals, service)
    assert pair.cycles(DROPPING).name in PHASE_RECORDS  # never the lattice
    want = mix_reference(arrivals, service)
    for discipline, age, bound in ((DROPPING, want.dropping, want.corollary1),
                                   (PREEMPTION, want.preemption,
                                    want.corollary2)):
        est = exact_age(pair, discipline)
        assert_covers(est.value, est.ci_half_width, age)
        report = corollary_one(pair, discipline)
        assert_covers(report.value, report.half_width, bound)
    if isinstance(arrivals, Exponential):
        pmf = k_pmf(pair, 12)
        for got, ref in zip(pmf.pmf, mix_pmf(arrivals.rate, service, 12)):
            assert got.half_width == 0.0
            assert abs(got.value - ref) <= 4.0 * EPS, (got.value, ref)


ERLANGS = [Erlang(2, 2.0), Erlang(5, 5.0)]
ERLANG_IDS = ["erlang-2", "erlang-5"]


@pytest.mark.parametrize("y", ALL_KINDS, ids=lambda d: d.kind)
@pytest.mark.parametrize("service", [Exponential(1.3), *MIXES, *ERLANGS],
                         ids=["exponential", *MIX_IDS, *ERLANG_IDS])
def test_no_phase_service_reaches_the_lattice(y, service):
    pair = Pair(y, service)
    for discipline in (DROPPING, PREEMPTION):
        exact_age(pair, discipline)
        corollary_one(pair, discipline)
    k_pmf(pair, 12)
    assert pair.cycles(DROPPING).name in PHASE_RECORDS


PHASE_LAWS = [Exponential(0.7), Hyperexponential((0.3, 0.7), (0.4, 3.0)),
              MIXES[2], *ERLANGS]


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("other", ALL_KINDS, ids=lambda d: d.kind)
@pytest.mark.parametrize("phase", PHASE_LAWS,
                         ids=["exponential", "hyperexponential", "rare-phase",
                              *ERLANG_IDS])
def test_no_phase_pair_integrates(phase, other, c):
    # With a law of Erlang blocks on either side, p, the crossing term and
    # the completed-service term all come from the other law's
    # mixed-Poisson law, and the path says so.
    phase, other = RESCALED[phase.kind](phase, c), RESCALED[other.kind](other, c)
    for y, s in ((phase, other), (other, phase)):
        pair = Pair(y, s)
        assert exact_age(pair, PREEMPTION).method == "closed_form"
        corollary_one(pair, PREEMPTION)  # corollary2
        est = exact_age(pair, DROPPING)
        if unshifted(s):
            assert est.method == "closed_form"
        corollary_one(pair, DROPPING)  # corollary1, and gm11 at E service
        k_pmf(pair, 10)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_mm_preemption_is_one_over_lambda_plus_one_over_mu(ratio, c):
    # Quadrature read E[S | S <= Y] as 0 on E(1)/E(1e-6), whose service
    # mean puts its first panel far past the e^-s weight of Y near 0.
    lam, mu = 1.0 / c, ratio / c
    est = exact_age(Pair(Exponential(lam), Exponential(mu)), PREEMPTION)
    with mpmath.workdps(50):
        want = float(1 / mpmath.mpf(lam) + 1 / mpmath.mpf(mu))
    assert est.method == "closed_form"
    assert_covers(est.value, est.ci_half_width, want)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("y", [Uniform(0.0, 2.0), LAWS[-1]],
                         ids=lambda d: d.kind)
def test_gm_preemption_at_a_rare_service(y, c):
    # The G/M preemptive age E[Y^2]/(2E[Y]) + 1/mu at mu = 1e-6/c.
    arrivals, mu = RESCALED[y.kind](y, c), 1e-6 / c
    est = exact_age(Pair(arrivals, Exponential(mu)), PREEMPTION)
    with mpmath.workdps(50):
        want = float(mpmath.mpf(arrivals.second_moment())
                     / (2 * mpmath.mpf(arrivals.mean())) + 1 / mpmath.mpf(mu))
    assert_covers(est.value, est.ci_half_width, want)


@pytest.mark.parametrize("s", [Deterministic(1e4), ShiftedExponential(1.0, 1e4),
                               Uniform(1e4, 2e4)], ids=lambda d: d.kind)
def test_far_service_at_exponential_arrivals_never_completes(s):
    # p = L_S(1) = e^-1e4 in closed form is 0: no service can complete.
    pair = Pair(Exponential(1.0), s)
    assert pair.p == (0.0, 0.0)
    with pytest.raises(ZeroSuccessProbability):
        exact_age(pair, PREEMPTION)


def test_uniform_service_far_below_the_arrival_scale():
    # s (b - a) = 1e-350 underflows to 0 inside L_S(s), whose limit there
    # is 1: every service completes, and the age is about 1/lam.
    pair = Pair(Exponential(1e-100), Uniform(0.0, 1e-250))
    assert pair.p == (1.0, 0.0)
    assert exact_age(pair, PREEMPTION).value == pytest.approx(1e100, rel=1e-12)


# ------------------------- hyperexponential arrivals: preemption's p closed
#
# Phase i of the gaps is an M/G pair of rate r_i, drawn with weight w_i:
# p = sum w_i L_S(r_i), E[Y Pr(S > Y)] = sum w_i (L_S'(r_i) + (1 -
# L_S(r_i))/r_i) and E[S Pr(Y >= S)] = -sum w_i L_S'(r_i).

@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("s", [d for d in ALL_KINDS if not isinstance(
    d, (Exponential, Hyperexponential))], ids=lambda d: d.kind)
@pytest.mark.parametrize("y", MIXES[:2], ids=MIX_IDS[:2])
def test_hyperexponential_arrivals_give_preemption_p_in_closed_form(y, s, c):
    arrivals, service = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    pair = Pair(arrivals, service)
    with mpmath.workdps(50):
        w = [mpmath.mpf(v) for v in arrivals.weights]
        r = [mpmath.mpf(v) for v in arrivals.rates]
        ell = [mp_laplace(service, x) for x in r]
        slope = [mpmath.diff(lambda t: mp_laplace(service, t), x) for x in r]
        p = mpmath.fsum(a * b for a, b in zip(w, ell))
        crossing = mpmath.fsum(a * (d + (1 - b) / x)
                               for a, b, d, x in zip(w, ell, slope, r))
        completed = -mpmath.fsum(a * d for a, d in zip(w, slope)) / p
        y_mean = mpmath.mpf(arrivals.mean())
        head = mpmath.mpf(arrivals.second_moment()) / (2 * y_mean)
        age = float(head + crossing / p + completed)
        bound = float(head + y_mean * (1 - p) / p + completed)
    assert pair.p.half_width == 0.0  # not integrated
    assert_covers(*pair.p, float(p))
    est = exact_age(pair, PREEMPTION)
    assert_covers(est.value, est.ci_half_width, age)
    report = corollary_one(pair, PREEMPTION)
    assert_covers(report.value, report.half_width, bound)


# ------------------------------- exponential arrivals: the closed-form pmf
#
# K - 1 is Poisson(lam S) given S, so Pr(K = k) = pi_{k-1}(lam) of the
# service and Pr(K > k_max) = T_{k_max - 1}.

@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_exponential_arrival_pmf_is_the_service_mixed_poisson_law(
        s, c):
    lam, service = 1.0 / c, RESCALED[s.kind](s, c)
    pair = Pair(Exponential(lam), service)
    assert pair.cycles(DROPPING).name in PHASE_RECORDS  # never the lattice
    pmf = k_pmf(pair, 12)
    with mpmath.workdps(80):
        pi, tail = mp_poisson_mix(service, lam, 11)
        for got, ref in zip((*pmf.pmf, pmf.tail_mass), (*pi, tail[-1])):
            assert abs(got.value - ref) <= got.half_width + 4.0 * EPS, (
                got, float(ref))


def test_exponential_arrival_pmf_past_the_long_double_exponent_range():
    # lam E[S] = 6000 puts the service's mixed-Poisson law at w = 12000,
    # past where e^-w is a normal long double, and k_max = 7000 > w/2:
    # Pr(K = k) = Pr(Poisson(w) >= k)/w and the tail (w - k_max)/w = 5/12,
    # nearly, must come from the whole law.
    k_max, w = 7000, mpmath.mpf(12000)
    pmf = k_pmf(Pair(Exponential(1.0), Uniform(0.0, 12000.0)), k_max)
    gamma = lambda k: mpmath.gammainc(k, 0, w, regularized=True)
    with mpmath.workdps(40):
        for k in (1, 2, 3500, 6999, 7000):
            got = pmf.pmf[k - 1]
            assert abs(got.value - gamma(k) / w) <= got.half_width + 4.0 * EPS
        tail = (w * gamma(k_max) - k_max * gamma(k_max + 1)) / w
        assert abs(pmf.tail_mass.value - tail) <= pmf.tail_mass.half_width + 4.0 * EPS


def test_long_erlang_service_past_the_long_double_exponent_range():
    # Erlang(7000, 6000) service against U(0, 2) gaps reads the gaps'
    # mixed-Poisson law at mu = 6000, w = 12000, up to j = 7000.  With
    # P(n, x) the regularized lower gamma, p = P(n, 2 mu) - n/(2 mu)
    # P(n+1, 2 mu), E[Y Pr(S > Y)] = 1 - P(n, 2 mu) + n(n+1)/(4 mu^2)
    # P(n+2, 2 mu) and E[S; S <= Y] = n/mu P(n+1, 2 mu) - n(n+1)/(2 mu^2)
    # P(n+2, 2 mu).
    n, mu = 7000, 6000.0
    pair = Pair(Uniform(0.0, 2.0), Erlang(n, mu))
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        gamma = lambda k: mpmath.gammainc(k, 0, 2 * m, regularized=True)
        p = gamma(n) - n / (2 * m) * gamma(n + 1)
        crossing = 1 - gamma(n) + n * (n + 1) / (4 * m * m) * gamma(n + 2)
        completed = n / m * gamma(n + 1) - n * (n + 1) / (2 * m * m) * gamma(n + 2)
        age = float(mpmath.mpf(2) / 3 + (crossing + completed) / p)
    assert_covers(*pair.p, float(p))
    est = exact_age(pair, PREEMPTION)
    assert est.method == "closed_form"
    assert_covers(est.value, est.ci_half_width, age)


# ------------------------------------ Erlang service: the block record
#
# Under dropping an Erlang(n, mu) service moves a phase up by
# Poisson(mu Y) in each gap, and K's record is closed form in the gaps'
# mixed-Poisson law at mu.

BLOCK_GAPS = [Uniform(0.0, 2.0), Rayleigh(1.0), Deterministic(0.5),
              ShiftedExponential(1.0, 0.2)]
BLOCK_SERVICES = [Erlang(2, 2.0), Erlang(3, 1.0), Erlang(5, 5.0)]


@pytest.mark.parametrize("s", BLOCK_SERVICES, ids=lambda d: d.describe())
@pytest.mark.parametrize("y", BLOCK_GAPS, ids=lambda d: d.kind)
def test_erlang_block_record_lies_inside_the_lattice(y, s):
    pair = Pair(y, s)
    record, records = pair.cycles(DROPPING), pair.records(DROPPING)
    lattice = records["d_arrivals" if isinstance(y, Deterministic)
                      else "lattice"]
    assert record.path == "closed_form"
    for got, want in zip(record.sums()[:3], lattice.sums()[:3]):
        assert got.half_width == 0.0
        assert_covers(got.value, want.half_width, want.value)
    (got, got_tail), (want, want_tail) = record.pmf(10), lattice.pmf(10)
    assert np.all(np.abs(got.value - want.value)
                  <= want.half_width + 4.0 * EPS)
    assert abs(got_tail.value - want_tail.value) <= want_tail.half_width + 4.0 * EPS


@pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0])
@pytest.mark.parametrize("s", [*BLOCK_SERVICES, Erlang(20, 3.0)],
                         ids=lambda d: d.describe())
def test_erlang_block_record_at_exponential_arrivals_is_the_mg11_age(s, lam):
    # Pair takes the one-phase record at exponential arrivals; the block
    # record, read from its records, must give the same M/G/1/1 sums.
    pair = Pair(Exponential(lam), s)
    assert pair.cycles(DROPPING).name == "one_phase"
    block = pair.records(DROPPING)["service_blocks"]
    k_mean, k_second, crossing = (v.value for v in block.sums()[:3])
    assert_covers(k_mean, 0.0, 1.0 + lam * s.mean())
    assert_covers(k_second, 0.0, 1.0 + 3.0 * lam * s.mean()
                  + lam**2 * s.second_moment())
    assert_covers(crossing, 0.0, 0.5 * lam * s.second_moment())
    assert_covers(1.0 / lam + crossing / k_mean + s.mean(), 0.0,
                  mg11_age(lam, s))


def test_a_long_erlang_block_leaves_the_lattice():
    # 1000 phases against gaps of 1e-4: about 1e4 arrivals a cycle, which
    # the lattice spans with 2^18 points; the block record with NumPy
    # convolutions of 1000 terms.
    y, s = Uniform(0.0, 2e-4), Erlang(1000, 1000.0)
    assert Pair(y, s).cycles(DROPPING).name == "service_blocks"
    est = exact_age(Pair(y, s), DROPPING)
    assert (est.method, est.ci_half_width) == ("closed_form", 0.0)
    # E[K] is E[S]/E[Y] plus the renewal excess E[Y^2]/(2 E[Y]^2) = 2/3.
    k_mean = Pair(y, s).cycles(DROPPING).sums()[0].value
    assert k_mean == pytest.approx(1e4 + 2.0 / 3.0, rel=1e-9)


def test_rayleigh_mixed_poisson_law_runs_once_per_rate(monkeypatch):
    # p, the crossing term and the completed-service term of a pair with
    # hyperexponential gaps read one mixed-Poisson law per phase rate.
    rates = []
    original = Rayleigh._poisson_mix

    def counted(self, s, j_max):
        rates.append(float(s))
        return original(self, s, j_max)

    monkeypatch.setattr(Rayleigh, "_poisson_mix", counted)
    pair = Pair(Hyperexponential((0.5, 0.5), (0.5, 2.0)), Rayleigh(0.5))
    pair.p, pair.crossing, pair.completed_service
    exact_age(pair, PREEMPTION)
    corollary_one(pair, PREEMPTION)
    assert sorted(rates) == [0.5, 2.0]


# ------------------------------------- phase-free pairs: the residual forms
#
# With D, U, SE or R on both sides p, the crossing term and the
# completed-service term come from one law's residual at the other's
# points (SE is an exponential block shifted by its shift).  The
# references integrate the paper's definitions in mpmath at 40 digits:
# p = E[Pr(S <= Y)], E[Y Pr(S > Y)] and E[S Pr(Y >= S)], each over the
# density of one law (or at its atom) cut at both laws' kinks.

PHASE_FREE = [Deterministic(1.2), Uniform(0.3, 2.1),
              ShiftedExponential(1.5, 0.4), Rayleigh(0.8)]


def mp_law(law):
    """(atom or None, density, support (lo, hi), Pr(X <= x), Pr(X < x),
    kinks) of ``law`` in mpmath."""
    mpf = mpmath.mpf
    if isinstance(law, Deterministic):
        v = mpf(law.value)
        return (v, None, (v, v), lambda x: mpf(x >= v), lambda x: mpf(x > v),
                [v])
    if isinstance(law, Uniform):
        a, b = mpf(law.lower), mpf(law.upper)
        cdf = lambda x: min(max((x - a) / (b - a), mpf(0)), mpf(1))
        return None, lambda x: 1 / (b - a), (a, b), cdf, cdf, [a, b]
    if isinstance(law, ShiftedExponential):
        r, d = mpf(law.rate), mpf(law.shift)
        cdf = lambda x: -mpmath.expm1(-r * (x - d)) if x > d else mpf(0)
        return (None, lambda x: r * mpmath.exp(-r * (x - d)), (d, mpmath.inf),
                cdf, cdf, [d])
    sigma = mpf(law.scale)
    cdf = lambda x: -mpmath.expm1(-x * x / (2 * sigma**2))
    return (None, lambda x: x / sigma**2 * mpmath.exp(-x * x / (2 * sigma**2)),
            (mpf(0), mpmath.inf), cdf, cdf, [])


def mp_mean(law, fn, kinks):
    """E[fn(X)] of ``law`` in mpmath, cut at ``kinks`` inside its support."""
    atom, density, (lo, hi), *_ = mp_law(law)
    if atom is not None:
        return fn(atom)
    cuts = sorted({lo, hi, *(k for k in kinks if lo < k < hi)})
    return mpmath.quad(lambda x: fn(x) * density(x), cuts)


def mp_preemption_terms(y, s):
    """p, E[Y Pr(S > Y)] and E[S; S <= Y] in mpmath."""
    *_, cdf_s, _, kinks_s = mp_law(s)
    *_, below_y, kinks_y = mp_law(y)
    return (mp_mean(y, cdf_s, kinks_s),
            mp_mean(y, lambda x: x * (1 - cdf_s(x)), kinks_s),
            mp_mean(s, lambda x: x * (1 - below_y(x)), kinks_y))


# Scale ratios of a million: p = Pr(S <= 1) = 5e-13 at D(1)/R(1e6) keeps
# its digits as Pr(S <= t), not 1 - Pr(S > t), and each integral over a U
# side takes the form whose terms are near its value: from U(0, 2), the
# other law's stop-loss E[(X - t)^+] is a million times the integral.
FAR_APART = [(Deterministic(1.0), Rayleigh(1e6)),
             (Uniform(0.0, 2.0), Rayleigh(1e6)),
             (Rayleigh(1e6), Uniform(0.0, 2.0)),
             (Rayleigh(1e-3), Uniform(0.0, 2.0))]


@pytest.mark.parametrize("y,s", [*itertools.product(PHASE_FREE, repeat=2),
                                 *FAR_APART],
                         ids=lambda d: d.describe())
def test_phase_free_pairs_match_the_definitions(y, s):
    pair = Pair(y, s)
    with mpmath.workdps(40):
        p, crossing, completed = mp_preemption_terms(y, s)
        assert_covers(*pair.p, float(p))
        assert_covers(*pair.crossing, float(crossing))
        assert_covers(*pair.completed_service, float(completed / p))
        est = exact_age(pair, PREEMPTION)
        assert est.method == "closed_form"
        head = mpmath.mpf(y.second_moment()) / (2 * mpmath.mpf(y.mean()))
        assert_covers(est.value, est.ci_half_width,
                      float(head + crossing / p + completed / p))


@pytest.mark.parametrize("y,s", [(Uniform(0.0, 2.0), ShiftedExponential(1e6, 1.0)),
                                 (Rayleigh(1.0), ShiftedExponential(1e6, 1.0))],
                         ids=["uniform", "rayleigh"])
def test_a_spike_past_the_shift_is_not_missed(y, s):
    # The service's mass sits within 1e-6 past its shift, where a
    # quadrature of the gaps' law once found none of it: the
    # completed-service term is E[S | S <= Y] near 1, not 0.
    with mpmath.workdps(40):
        p, crossing, completed = mp_preemption_terms(y, s)
        head = mpmath.mpf(y.second_moment()) / (2 * mpmath.mpf(y.mean()))
        want = float(head + crossing / p + completed / p)
    est = exact_age(Pair(y, s), PREEMPTION)
    assert_covers(est.value, est.ci_half_width, want)
    assert abs(want - {"uniform": 2.16666916666817,
                       "rayleigh": 2.20857310613286}[y.kind]) < 1e-14


@pytest.mark.parametrize("y,s", [(ShiftedExponential(1.0, 0.1), Deterministic(1e4)),
                                 (Rayleigh(1.0), ShiftedExponential(1.0, 1e6))],
                         ids=["SE-D", "R-SE"])
def test_a_service_that_cannot_complete_raises(y, s):
    # p is about e^-9999.9, and e^-5e11: 0 in doubles, not a quadrature's
    # leftover of 0.0123 or 3.5e-6.
    pair = Pair(y, s)
    assert pair.p.value == 0.0
    for run in (lambda: exact_age(pair, PREEMPTION),
                lambda: corollary_one(pair, PREEMPTION)):
        with pytest.raises(ZeroSuccessProbability):
            run()


def test_a_shift_past_the_double_range_of_rayleigh_scales():
    # t/scale = 6e449 overflows a double: the Rayleigh law has no mass
    # left past the shift, where a tail law at an infinite point gave NaN.
    est = exact_age(Pair(ShiftedExponential(1e-150, 5e149), Rayleigh(8e-301)),
                    PREEMPTION)
    assert_covers(est.value, est.ci_half_width, 1.0833333333333334e150)
    with pytest.raises(ZeroSuccessProbability):
        exact_age(Pair(Rayleigh(8e-151), ShiftedExponential(1e-300, 5e299)),
                  PREEMPTION)


@pytest.mark.parametrize("k", [-500, 500])
@pytest.mark.parametrize("s", PHASE_FREE, ids=lambda d: d.kind)
@pytest.mark.parametrize("y", PHASE_FREE, ids=lambda d: d.kind)
def test_phase_free_pairs_rescale_by_powers_of_two(y, s, k):
    # Times times 2^k are exact, so p stays and every time term is 2^k
    # times its value at k = 0.  At 2^500 squares are finite and cubes are
    # not.
    c = 2.0**k
    base, scaled = Pair(y, s), Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    assert_covers(*scaled.p, base.p.value)
    for got, want in ((scaled.crossing, base.crossing),
                      (scaled.completed_service, base.completed_service)):
        assert_covers(*got, c * want.value)
    est, want = exact_age(scaled, PREEMPTION), exact_age(base, PREEMPTION)
    assert_covers(est.value, est.ci_half_width, c * want.value)


def test_block_service_with_an_overflowing_second_moment_takes_its_record():
    # E[S^2] = inf stops the one-phase record, not the block record: E(1e-152)
    # arrivals with a rare phase of rate 1e-168 give 1e152 times the age
    # at scale 1, where E[S^2] = 2e18 and the one-phase record holds.
    weights = (1.0 - 1e-14, 1e-14)
    service = Hyperexponential(weights, (1e-152, 1e-168))
    assert service.second_moment() == math.inf
    est = exact_age(Pair(Exponential(1e-152), service), DROPPING)
    base = exact_age(Pair(Exponential(1.0), Hyperexponential(weights, (1.0, 1e-16))),
                     DROPPING)
    assert est.method == "closed_form"
    assert_covers(est.value, est.ci_half_width, 1e152 * base.value)
