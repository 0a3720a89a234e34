import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

from aoi import analytic
from aoi.analytic import RECORDS, Pair, exact_age, k_pmf
from aoi.bounds import corollary_one, mg11_ordering_bound
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.errors import AoiError, TruncationNotReached, ZeroSuccessProbability
from aoi.sim import Z95, Discipline, SimConfig, run_simulation
from test_distributions import ALL_KINDS, RESCALED
from walk_oracle import _k_pmf_walk, dropping_walk_moments


DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION
EPS = np.finfo(float).eps


def k_moments(pair):
    """(E[K], E[K^2]) of ``pair``'s dropping record."""
    return pair.cycles(DROPPING).sums()[:2]


@dataclass(frozen=True)
class RecordPair(Pair):
    """A pair whose every dropping estimate reads its record ``name`` of
    :meth:`Pair.records`, not the first that applies."""

    name: str = "lattice"

    def cycles(self, discipline):
        assert discipline is DROPPING
        return self.records(discipline)[self.name]


def mm_dropping_age(lam, mu):
    return 1.0 / lam + 2.0 / mu - 1.0 / (lam + mu)


def assert_is_closed_form(pair, est):
    """A dropping age at exponential service integrates nothing: p and the
    crossing term come from the gap law's Laplace descriptors, with no
    quadrature error, and the age reports path ``closed_form`` and
    half-width 0."""
    assert pair.p.half_width == pair.crossing.half_width == 0.0
    assert (est.method, est.ci_half_width) == ("closed_form", 0.0)


# ------------------------------------------------------------- dropping

def test_mm_fast_path_is_closed_form():
    for lam in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0, 2.0):
            pair = Pair(Exponential(lam), Exponential(mu))
            est = exact_age(pair, DROPPING)
            closed = mm_dropping_age(lam, mu)
            # The closed-form record: exact sums, half-width 0.
            assert est.ci_half_width == 0.0
            assert abs(est.value - closed) <= 4.0 * EPS * closed
            assert est.method == "closed_form"


def test_mm_generic_walk_agrees_with_closed_form():
    wm = dropping_walk_moments(Exponential(1.0), Exponential(1.0), 400_000, 3)
    ratio = wm.ratio()
    value = 1.0 + ratio.value + 1.0  # E[Y^2]/(2E[Y]) = E[S] = 1
    assert value == pytest.approx(2.5, rel=5e-3)
    assert abs(value - 2.5) <= 4.0 * Z95 * ratio.stderr
    assert wm.samples == 400_000


def test_crossing_sum_closed_form_check():
    # For exponential service the crossing sum is lam/mu^2 exactly.
    wm = dropping_walk_moments(Exponential(1.0), Exponential(1.0), 400_000, 4)
    assert wm.sum_term.value == pytest.approx(1.0, rel=5e-3)
    assert wm.k_mean.value == pytest.approx(2.0, rel=5e-3)
    assert wm.k_second.value == pytest.approx(6.0, rel=1.5e-2)


def test_deterministic_dropping_exact_values():
    est = exact_age(Pair(Deterministic(2.0), Deterministic(1.0)), DROPPING)
    assert est.value == pytest.approx(2.0, abs=1e-12)  # sum term 0, K == 1
    est = exact_age(Pair(Deterministic(1.0), Deterministic(1.5)), DROPPING)
    assert est.value == pytest.approx(2.5, abs=1e-12)  # hand trace: K == 2


def test_moments_of_k_examples():
    k1, k2 = k_moments(Pair(Exponential(1.0), Exponential(1.0)))
    assert (k1.value, k2.value) == (2.0, 6.0)  # geometric p = 1/2
    k1, k2 = k_moments(Pair(Deterministic(2.0), Deterministic(1.0)))
    assert (k1.value, k2.value) == (1.0, 1.0)
    k1, k2 = k_moments(Pair(Deterministic(1.0), Deterministic(1.5)))
    assert (k1.value, k2.value) == (2.0, 4.0)
    k1, k2 = k_moments(Pair(Exponential(2.0), Deterministic(0.0)))
    assert (k1.value, k2.value) == (1.0, 1.0)  # zero service: K == 1


def test_geometric_fast_path_agrees_with_generic_walk():
    y, s = ShiftedExponential(1.0, 0.5), Exponential(1.0)
    closed_k1, closed_k2 = k_moments(Pair(y, s))
    assert closed_k1.half_width == 0.0
    wm = dropping_walk_moments(
        y, s, samples=300_000, seed=5)
    assert abs(wm.k_mean.value - closed_k1.value) <= 4.0 * wm.k_mean.stderr
    assert abs(wm.k_second.value - closed_k2.value) <= 4.0 * wm.k_second.stderr


def test_truncation_not_reached():
    # Tiny gaps against a huge deterministic service need > 1e4 terms.
    with pytest.raises(TruncationNotReached):
        dropping_walk_moments(Exponential(150.0), Deterministic(100.0),
                              samples=10_000, seed=1)


@pytest.mark.parametrize("s", [
    Deterministic(1e308), Uniform(0.0, 1e308), Rayleigh(8e307),
    Hyperexponential((0.5, 0.5), (5e-309, 2e-308))],
    ids=lambda d: d.kind)
def test_lattice_past_the_float_range_is_not_reached(s):
    # E[K^2], or the lattice's top, or its size in steps of E[Y]/m,
    # overflows: a domain error, not an OverflowError or an endless
    # doubling.  The pmf at exponential arrivals is the service's
    # mixed-Poisson law, which reaches any scale: K is almost surely past 3.
    pair = Pair(Exponential(1.0), s)
    for run in (lambda: exact_age(pair, DROPPING),
                lambda: corollary_one(pair, DROPPING),
                lambda: RECORDS[DROPPING]["lattice"](pair)):
        with pytest.raises(TruncationNotReached):
            run()
    pmf = k_pmf(pair, 3)
    assert all(0.0 <= m.value <= 1e-300 for m in pmf.pmf)
    assert pmf.tail_mass.value == 1.0


def test_deterministic_arrivals_too_deep_are_not_reached():
    # A U(0, 1) service spans 1e6 gaps of D(1e-6), more than the point
    # budget of the D-arrival record's finite sums.
    with pytest.raises(TruncationNotReached, match="lattice steps"):
        Pair(Deterministic(1e-6), Uniform(0.0, 1.0)).cycles(DROPPING)


def test_walk_rejects_degenerate_interarrival():
    with pytest.raises(ValueError):
        exact_age(Pair(Deterministic(0.0), Exponential(1.0)), DROPPING)


# ------------------------------------------- exponential service: renewal

@pytest.mark.parametrize("y", [
    Exponential(1.0), Uniform(0.0, 2.0),
    Hyperexponential((0.5, 0.5), (0.5, 2.0)), Erlang(2, 2.0),
    ShiftedExponential(1.0, 0.5), Rayleigh(1.0), Deterministic(0.5),
], ids=lambda y: y.kind)
def test_renewal_form_agrees_with_walk(y):
    s = Exponential(1.0)
    walk = {"samples": 200_000, "seed": 11}

    def close(renewal, walk):
        # 4 stderr, plus a 1e-7 relative floor for the walk's truncation
        # bias and rounding: all that is left when deterministic gaps make
        # the walk noiseless.
        tol = 4.0 * walk.stderr + 1e-7 * abs(walk.value)
        return abs(renewal - walk.value) <= tol

    wm = dropping_walk_moments(y, s, **walk)
    ratio = wm.ratio()
    head = y.second_moment() / (2.0 * y.mean())
    walk_age = ratio._replace(value=head + ratio.value + s.mean())
    est = exact_age(Pair(y, s), DROPPING)
    assert est.cycles_used == 0
    assert_is_closed_form(Pair(y, s), est)
    assert close(est.value, walk_age)

    k1, k2 = k_moments(Pair(y, s))
    assert close(k1.value, wm.k_mean) and close(k2.value, wm.k_second)

    renewal, walk = k_pmf(Pair(y, s), 10), _k_pmf_walk(y, s, 10, **walk)
    for k, (r, w) in enumerate(zip(renewal.pmf, walk.pmf), start=1):
        assert r.half_width == 0.0 and close(r.value, w), k
    assert close(renewal.tail_mass.value, walk.tail_mass)


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (0.3, 1.0), (1.0, 0.3)])
def test_mm_renewal_form_is_scale_free(c, lam, mu):
    # Rates 1/c: every time in units of c, far from the quadrature's
    # default unit.
    est = exact_age(Pair(Exponential(lam / c), Exponential(mu / c)), DROPPING)
    assert est.value == pytest.approx(c * mm_dropping_age(lam, mu), rel=1e-9)


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("scaled", [
    lambda c: Erlang(2, 2.0 / c),
    lambda c: Hyperexponential((0.5, 0.5), (0.5 / c, 2.0 / c)),
    lambda c: ShiftedExponential(1.0 / c, 0.5 * c),
    lambda c: Uniform(0.0, 2.0 * c),
    lambda c: Rayleigh(c),
], ids=["erlang", "hyperexponential", "shifted_exponential", "uniform",
        "rayleigh"])
def test_renewal_form_rescales_with_time(c, scaled):
    age = exact_age(Pair(scaled(1.0), Exponential(1.0)), DROPPING).value
    est = exact_age(Pair(scaled(c), Exponential(1.0 / c)), DROPPING)
    assert est.value == pytest.approx(c * age, rel=1e-9)


def test_renewal_form_survives_deep_cycles():
    # About 2e4 arrivals per cycle: more than the walk oracle's 1e4-term cap.
    y, s = Uniform(0.0, 0.02), Exponential(0.005)
    est = exact_age(Pair(y, s), DROPPING)
    assert math.isfinite(est.value)
    k_mean = k_moments(Pair(y, s))[0].value
    assert k_mean == pytest.approx(20_000.0 + 2.0 / 3.0, rel=1e-6)
    # The age is head + E[Y exp(-mu Y)] E[K] + 1/mu with the same E[K].
    crossing, _ = integrate.quad(lambda t: t * math.exp(-0.005 * t) / 0.02,
                                 0.0, 0.02)
    head = y.second_moment() / (2.0 * y.mean())
    assert (est.value - head - s.mean()) / crossing == \
        pytest.approx(k_mean, rel=1e-9)


# ------------------------------------------------------------- k pmf

def test_k_pmf_deterministic_cases():
    res = k_pmf(Pair(Deterministic(1.0), Deterministic(1.5)), 4)
    assert [m.value for m in res.pmf] == [0.0, 1.0, 0.0, 0.0]
    assert res.tail_mass.value == 0.0
    res = k_pmf(Pair(Exponential(2.0), Deterministic(0.0)), 3)
    assert res.pmf[0].value == 1.0  # zero service: first arrival closes it


def test_k_pmf_mm_geometric():
    res = k_pmf(Pair(Exponential(1.0), Exponential(1.0)), 30)
    for k, m in enumerate(res.pmf[:8], start=1):
        assert abs(m.value - 0.5**k) <= max(4.0 * m.half_width / Z95, 1e-4)
    total = sum(m.value for m in res.pmf) + res.tail_mass.value
    assert total == pytest.approx(1.0, abs=1e-9)
    assert res.tail_mass.value < 1e-6
    # First moment consistency with the closed-form E[K].
    k1, _ = k_moments(Pair(Exponential(1.0), Exponential(1.0)))
    mean_from_pmf = sum(k * m.value for k, m in enumerate(res.pmf, start=1))
    assert mean_from_pmf == pytest.approx(k1.value, rel=5e-3)


@pytest.mark.parametrize("mu", [1e-2, 1e-4, 1e-6])
def test_geometric_k_pmf_keeps_its_relative_precision(mu):
    # Pr(K = k) = q^(k-1) p, q = L(mu) = 1/(1 + mu), p = mu/(1 + mu): a
    # difference of survival values q^(k-1) - q^k, or p as 1 - q, would
    # lose relative precision as p shrinks.
    q, p = 1.0 / (1.0 + mu), mu / (1.0 + mu)
    res = k_pmf(Pair(Exponential(1.0), Exponential(mu)), 10)
    for k, m in enumerate(res.pmf, start=1):
        closed = q ** (k - 1) * p
        assert abs(m.value - closed) <= 1e-14 * closed, k


@pytest.mark.parametrize("y,mu", [(Exponential(1.0), 1e-300),
                                  (Uniform(0.0, 2e10), 1e-160)],
                         ids=["E-1e-300", "U-1e-160"])
def test_geometric_record_beyond_the_float_range_is_not_reached(y, mu):
    # p = 1 - L(mu) keeps its precision and is positive, but 1/p^2, or the
    # crossing sum E[Y exp(-mu Y)]/p^2, overflows: the errors of p = 0, not
    # an infinite age or a ZeroDivisionError.  At exponential arrivals the
    # pmf is the service's mixed-Poisson law instead, p (1-p)^(k-1).
    pair = Pair(y, Exponential(mu))
    assert pair.p.value > 0.0
    runs = [(lambda: exact_age(pair, PREEMPTION), ZeroSuccessProbability),
            (lambda: corollary_one(pair, PREEMPTION), ZeroSuccessProbability),
            (lambda: exact_age(pair, DROPPING), TruncationNotReached)]
    if isinstance(y, Exponential):
        pmf = k_pmf(pair, 3)
        p = pair.p.value
        assert [m.value for m in pmf.pmf] == [p] * 3
        assert pmf.tail_mass.value == 1.0
    else:
        runs.append((lambda: k_pmf(pair, 3), TruncationNotReached))
    for run, error in runs:
        with pytest.raises(error):
            run()


@pytest.mark.parametrize("y", ALL_KINDS, ids=lambda d: d.describe())
def test_exponential_service_shares_one_geometric_record(y):
    # With exponential service both disciplines read one geometric record
    # with p = Pr(S <= Y): the dropping K pmf is geometric, and the two
    # ages, like the two unconditional bounds, differ only in their
    # service terms E[S] = 1/mu and E[S | S <= Y].
    mu = 1.3
    pair = Pair(y, Exponential(mu))
    p, stilde = pair.p.value, pair.completed_service.value
    res = k_pmf(pair, 12)
    for k, m in enumerate(res.pmf, start=1):
        assert m.value == pytest.approx((1.0 - p)**(k - 1) * p, rel=1e-12)
        assert m.half_width == 0.0
    assert res.tail_mass.value == pytest.approx((1.0 - p)**12, rel=1e-12)
    gap = exact_age(pair, DROPPING).value - exact_age(pair, PREEMPTION).value
    assert gap == pytest.approx(1.0 / mu - stilde, rel=1e-12)
    gap = (corollary_one(pair, PREEMPTION).value
           - corollary_one(pair, DROPPING).value)
    assert gap == pytest.approx(stilde - 1.0 / mu, rel=1e-12)


# ------------------------------------------------------------- preemption

def test_success_probability_values():
    assert Pair(Exponential(1.0), Exponential(1.0)).p.value == \
        pytest.approx(0.5, rel=1e-9)
    assert Pair(Deterministic(2.0), Deterministic(1.0)).p.value == 1.0
    assert Pair(Deterministic(1.0), Deterministic(2.0)).p.value == 0.0
    for lam, mu in ((0.5, 1.5), (2.0, 1.0)):
        assert Pair(Exponential(lam), Exponential(mu)).p.value == \
            pytest.approx(mu / (lam + mu), rel=1e-9)


def test_success_probability_against_monte_carlo_oracle():
    rng = np.random.default_rng(2025)
    n = 400_000
    for y, s in [(ShiftedExponential(1.0, 0.4), Rayleigh(0.6)),
                 (Uniform(0.2, 1.6), Exponential(1.5)),
                 (Hyperexponential((0.4, 0.6), (0.5, 3.0)), Uniform(0.1, 0.9))]:
        draws_y = y.sample_array(rng, n)
        draws_s = s.sample_array(rng, n)
        oracle = float(np.mean(draws_s <= draws_y))
        se = math.sqrt(oracle * (1.0 - oracle) / n)
        assert abs(Pair(y, s).p.value - oracle) <= 4.0 * se


def test_conditional_mean_service_values():
    assert Pair(Exponential(1.0), Exponential(1.0)).completed_service.value == \
        pytest.approx(0.5, rel=1e-9)  # 1/(lam+mu)
    assert Pair(Deterministic(2.0), Deterministic(1.0)).completed_service == \
        (1.0, 0.0)  # point masses: nothing is integrated
    with pytest.raises(ZeroSuccessProbability):
        Pair(Deterministic(1.0), Deterministic(2.0)).completed_service


def test_conditional_mean_service_against_monte_carlo_oracle():
    rng = np.random.default_rng(77)
    n = 400_000
    y, s = ShiftedExponential(2.0, 0.3), Uniform(0.1, 1.1)
    draws_y = y.sample_array(rng, n)
    draws_s = s.sample_array(rng, n)
    kept = draws_s[draws_s <= draws_y]
    oracle = float(kept.mean())
    se = float(kept.std(ddof=1) / math.sqrt(len(kept)))
    assert abs(Pair(y, s).completed_service.value - oracle) <= 4.0 * se


def test_mm_preemption_closed_form():
    for lam in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0, 2.0):
            est = exact_age(Pair(Exponential(lam), Exponential(mu)), PREEMPTION)
            assert est.value == pytest.approx(1.0 / lam + 1.0 / mu, rel=1e-8)


@pytest.mark.parametrize("y,s", [(Exponential(2.0), Exponential(1.0)),
                                 (Uniform(0.0, 2.0), Rayleigh(1.0))],
                         ids=["E/E", "U/R"])
def test_preemption_pmf_is_geometric_in_p(y, s):
    # Each arrival's service completes with chance p, independently.
    pair = Pair(y, s)
    p, k_max = pair.p.value, 12
    probs, tail = pair.cycles(PREEMPTION).pmf(k_max)
    k = np.arange(1, k_max + 1)
    assert probs.value == pytest.approx(p * (1.0 - p) ** (k - 1), rel=1e-14)
    assert tail.value == pytest.approx((1.0 - p) ** k_max, rel=1e-14)
    assert np.all(probs.half_width == 0.0) and tail.half_width == 0.0


def test_printed_denominator_variant_differs():
    # lam=2, mu=1: dividing the middle term by p gives 1.5; dividing it by
    # 1-p instead would give 7/6.
    exact = exact_age(Pair(Exponential(2.0), Exponential(1.0)), PREEMPTION)
    assert exact.value == pytest.approx(1.5, rel=1e-9)
    # Only the p reading matches simulation.
    est, _ = run_simulation(SimConfig(Exponential(2.0), Exponential(1.0),
                                      "preemption", 20_000, seed=8))
    assert abs(est.value - 1.5) <= 3.0 * est.ci_half_width
    assert abs(est.value - 7.0 / 6.0) > 3.0 * est.ci_half_width


def _preemption_outcome(y, s):
    """(exact age, corollary 2 bound), or the AoiError class raised."""
    try:
        pair = Pair(y, s)
        return exact_age(pair, PREEMPTION).value, corollary_one(pair, PREEMPTION).value
    except AoiError as exc:
        return type(exc)


@given(st.sampled_from(ALL_KINDS), st.sampled_from(ALL_KINDS),
       st.floats(-6.0, 6.0))
# p = Pr(Y >= 2) = 0 exactly, but 1 - E[Pr(S > Y)] rounded to 1.1e-16 here.
@example(Uniform(0.5, 2.0), Deterministic(2.0), 1.501953125)
def test_preemption_is_scale_free(y, s, log10_c):
    c = 10.0**log10_c
    base = _preemption_outcome(y, s)
    scaled = _preemption_outcome(RESCALED[y.kind](y, c),
                                 RESCALED[s.kind](s, c))
    if isinstance(base, type):
        assert scaled is base
    else:
        assert scaled == pytest.approx((c * base[0], c * base[1]), rel=1e-7)


@functools.cache
def _dropping_outcome(y, s, bracketing=False):
    """Times (age, corollary 1, which is gm11 at exponential service), the age's
    half-width, probabilities (the K pmf and tail) and the mg11 label, or
    the AoiError class raised; with ``bracketing`` a pair the lattice
    serves reads its ``bracketing`` record."""
    pair = Pair(y, s)
    try:
        if bracketing and pair.cycles(DROPPING).path == "lattice":
            pair = RecordPair(y, s, "bracketing")
        est = exact_age(pair, DROPPING)
        times = [est.value, corollary_one(pair, DROPPING).value]
        pmf = k_pmf(pair, 10)
    except AoiError as exc:
        return type(exc)
    label = mg11_ordering_bound(pair)
    return (times, est.ci_half_width,
            [m.value for m in (*pmf.pmf, pmf.tail_mass)], label.applicability)


@given(st.sampled_from(ALL_KINDS), st.sampled_from(ALL_KINDS),
       st.floats(-6.0, 6.0))
@example(Exponential(1.0), Deterministic(2.0), -6.0)
@example(Exponential(1.0), Deterministic(2.0), 6.0)
# The service atom falls on a lattice point, and here the scaled mean gap
# is an ulp away from c, so the point lands an ulp off the atom.
@example(Exponential(1.0), Deterministic(2.0), 4.440121862119678)
def test_dropping_is_scale_free(y, s, log10_c):
    c = 10.0**log10_c
    base = _dropping_outcome(y, s)
    scaled = _dropping_outcome(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    if isinstance(base, type):
        assert scaled is base
    else:
        assert scaled[0] == pytest.approx([c * t for t in base[0]], rel=1e-9)
        # A lattice half-width rescales like an age.  A quadrature error
        # estimate is itself a sum of roundoff terms, so it rescales only
        # to within a few ulps of the age.  Here the bracketing solve's;
        # test_lattice_oracle rescales the extrapolated ones.
        was, now = (_dropping_outcome(y, s, bracketing=True),
                    _dropping_outcome(RESCALED[y.kind](y, c),
                                      RESCALED[s.kind](s, c), bracketing=True))
        assert now[1] == pytest.approx(c * was[1], rel=1e-9,
                                       abs=4.0 * EPS * now[0][0])
        assert scaled[2] == pytest.approx(base[2], rel=1e-9, abs=1e-12)
        assert scaled[3] is base[3]


def test_preemption_deterministic_cases():
    est = exact_age(Pair(Deterministic(2.0), Deterministic(1.0)), PREEMPTION)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ZeroSuccessProbability):
        exact_age(Pair(Deterministic(1.0), Deterministic(2.0)), PREEMPTION)
    # Tie: completion at exactly the next arrival succeeds.
    est = exact_age(Pair(Deterministic(1.0), Deterministic(1.0)), PREEMPTION)
    assert est.value == pytest.approx(1.5, abs=1e-12)


# ------------------------------------------------- estimator vs simulator

@pytest.mark.parametrize("y,s", [
    (ShiftedExponential(1.0, 0.5), ShiftedExponential(1.0, 0.1)),
    (Uniform(0.2, 1.8), Rayleigh(0.5)),
    (Hyperexponential((0.5, 0.5), (0.5, 2.0)), Exponential(1.0)),
])
def test_estimator_simulator_agreement_dropping(y, s):
    est = exact_age(Pair(y, s), DROPPING)
    sim, _ = run_simulation(SimConfig(y, s, "dropping", 20_000, seed=31))
    assert abs(est.value - sim.value) <= \
        3.0 * (est.ci_half_width + sim.ci_half_width)


@pytest.mark.parametrize("y,s", [
    (ShiftedExponential(1.0, 0.5), ShiftedExponential(2.0, 0.1)),
    (Uniform(0.2, 1.8), Rayleigh(0.4)),
])
def test_estimator_simulator_agreement_preemption(y, s):
    est = exact_age(Pair(y, s), PREEMPTION)
    sim, _ = run_simulation(SimConfig(y, s, "preemption", 20_000, seed=32))
    assert abs(est.value - sim.value) <= \
        3.0 * (est.ci_half_width + sim.ci_half_width) + 1e-9


def test_preemption_k_is_geometric_in_simulation():
    from aoi.sim import cycle_statistics
    y, s = Uniform(0.2, 1.8), Rayleigh(0.4)
    p = Pair(y, s).p.value
    _, records = run_simulation(SimConfig(y, s, "preemption", 20_000, seed=33))
    stats = cycle_statistics(records)
    assert abs(stats.k_mean.value - 1.0 / p) <= 3.0 * stats.k_mean.stderr


def test_reproducibility_bit_identical():
    a = exact_age(Pair(Uniform(0.2, 1.8), Rayleigh(0.5)), DROPPING)
    b = exact_age(Pair(Uniform(0.2, 1.8), Rayleigh(0.5)), DROPPING)
    assert a == b
    c = k_pmf(Pair(Exponential(1.0), Exponential(1.0)), 5)
    d = k_pmf(Pair(Exponential(1.0), Exponential(1.0)), 5)
    assert c == d


def _outcome(op):
    """``op()``'s result, or the type of what it raised."""
    try:
        return op()
    except AoiError as exc:
        return type(exc)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 4.0 * EPS * max(abs(a), abs(b))


@pytest.mark.parametrize("side", ["interarrival", "service"])
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("x", ALL_KINDS, ids=lambda d: d.kind)
def test_shifted_exponential_at_shift_zero_is_the_exponential(x, c, side):
    # SE(r, 0) is E(r): on either side, against every law, each op takes
    # the same path and half-widths and values within 4 eps (E[Y^2], and
    # with it the head, can differ by an ulp).
    x, rate = RESCALED[x.kind](x, c), 1.3 / c

    def pair(alias):
        return Pair(alias, x) if side == "interarrival" else Pair(x, alias)
    alias, plain = pair(ShiftedExponential(rate, 0.0)), pair(Exponential(rate))
    for discipline in (DROPPING, PREEMPTION):
        got, want = (_outcome(lambda p=p: exact_age(p, discipline))
                     for p in (alias, plain))
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.method, got.ci_half_width) == (
                want.method, want.ci_half_width)
            assert _close(got.value, want.value), (got, want)
        got, want = (_outcome(lambda p=p: corollary_one(p, discipline))
                     for p in (alias, plain))
        if isinstance(want, type):
            assert got is want
        else:
            assert got.half_width == want.half_width
            assert _close(got.value, want.value), (got, want)
    got, want = k_pmf(alias, 10), k_pmf(plain, 10)
    for g, w in zip((*got.pmf, got.tail_mass), (*want.pmf, want.tail_mass)):
        assert g.half_width == w.half_width and _close(g.value, w.value)


@pytest.mark.parametrize("pair", [
    Pair(Erlang(2, 2.0), Uniform(0.0, 1.0)), Pair(Exponential(1.0), Rayleigh(1.0)),
    Pair(Rayleigh(1.0), ShiftedExponential(2.0, 0.5))],
    ids=["Erlang/U", "E/R", "R/SE"])
def test_k_pmf_takes_an_integral_float_k_max_and_refuses_others(pair):
    # The rule a sweep spec's counts follow: 10.0 is 10, and 10.5, nan or
    # "10" is a ValueError that names the field, not a NumPy error.
    assert k_pmf(pair, 10.0) == k_pmf(pair, 10)
    for k_max in (10.5, math.nan, "10"):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            k_pmf(pair, k_max)


@pytest.mark.parametrize("k_max", [analytic._MAX_LATTICE + 1, 10**9])
def test_k_pmf_bounds_k_max_by_the_point_budget(k_max):
    # A pmf call's memory (the service's mixed-Poisson terms, 7.45 GiB at
    # 10^9) or time (the lattice's spectrum products) grows with k_max.
    for pair in (Pair(Exponential(1.0), Exponential(2.0)),
                 Pair(Uniform(0.0, 0.2), Rayleigh(2.0))):
        with pytest.raises(ValueError, match="k_max must be >= 1 and at most"):
            k_pmf(pair, k_max)
