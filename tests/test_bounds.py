import math

import pytest

from aoi.analytic import Pair, exact_age
from aoi.bounds import (Applicability, BoundKind, BoundReport, corollary_one,
                        mg11_ordering_bound)
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict,
                               ShiftedExponential, Uniform)
from aoi.errors import TruncationNotReached, ZeroSuccessProbability
from aoi.experiments import ESTIMATORS, require
from aoi.sim import Discipline
from test_analytic import k_moments

DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION


def test_corollary1_plug_in_examples():
    # K moments (2, 6), (1, 1) and (2, 4): geometric with p = 1/2, K == 1
    # and K == 2.
    for y, s, moments, value in (
            (Exponential(1.0), Exponential(1.0), (2.0, 6.0), 3.0),
            (Deterministic(2.0), Deterministic(1.0), (1.0, 1.0), 2.0),
            (Deterministic(1.0), Deterministic(1.5), (2.0, 4.0), 2.5)):
        pair = Pair(y, s)
        k1, k2 = k_moments(pair)
        assert (k1.value, k2.value) == pytest.approx(moments, rel=1e-12)
        r = corollary_one(pair, DROPPING)
        assert r.value == pytest.approx(value, rel=1e-12)
    assert r.applicability is Applicability.UNCONDITIONAL
    assert r.half_width == 0.0


def test_corollary1_half_width_spans_the_k_moment_intervals():
    # The bound moves E[Y]/2 times the range of E[K^2]/E[K] over the
    # brackets E[K] +/- a, E[K^2] +/- b of the lattice moments.
    y, s = Uniform(0.2, 1.8), ShiftedExponential(1.0, 0.1)
    (k1, a), (k2, b) = k_moments(Pair(y, s))
    assert 0.0 < a < k1 and b > 0.0
    ratio = k2 / k1
    spread = max((k2 + b) / (k1 - a) - ratio, ratio - (k2 - b) / (k1 + a))
    r = corollary_one(Pair(y, s), DROPPING)
    assert r.value == pytest.approx(
        y.second_moment() / (2.0 * y.mean()) + y.mean() * (0.5 * ratio - 0.5)
        + s.mean(), rel=1e-12)
    assert r.half_width == pytest.approx(0.5 * y.mean() * spread, rel=1e-12)


def test_gm11_examples():
    r = corollary_one(Pair(Exponential(1.0), Exponential(1.0)), DROPPING)
    assert r.value == pytest.approx(3.0, rel=1e-12)
    r = corollary_one(Pair(Deterministic(2.0), Exponential(1.0)), DROPPING)
    assert r.value == pytest.approx(2.0 + 2.0 * (1.0 / (1.0 - math.exp(-2.0)) - 1.0),
                                    rel=1e-12)
    with pytest.raises(ValueError):
        corollary_one(Pair(Deterministic(0.0), Exponential(1.0)), DROPPING)


def test_estimator_table_refuses_a_label_the_pair_does_not_earn():
    # The table alone pairs each bound tag with its label, its discipline
    # and its precondition.
    labels = {tag: (e.kind, tuple(e.calls), e.exponential_service)
              for tag, e in ESTIMATORS.items()}
    assert labels == {
        "exact": (None, (DROPPING, PREEMPTION), False),
        "corollary1": (BoundKind.CorollaryOneDropping, (DROPPING,), False),
        "gm11": (BoundKind.GM11, (DROPPING,), True),
        "mg11": (BoundKind.MG11Ordering, (DROPPING,), False),
        "corollary2": (BoundKind.CorollaryTwoPreemption, (PREEMPTION,), False),
    }
    with pytest.raises(ValueError, match="exponential service"):
        require("gm11", DROPPING, Uniform(0.0, 1.0))
    for tag, discipline in (("corollary1", PREEMPTION), ("gm11", PREEMPTION),
                            ("mg11", PREEMPTION), ("corollary2", DROPPING)):
        with pytest.raises(ValueError, match="applies to"):
            require(tag, discipline, Exponential(1.0))


@pytest.mark.parametrize("service", [
    ShiftedExponential(2.0, 0.0), Erlang(1, 2.0),
    Hyperexponential((0.3, 0.7), (2.0, 2.0))], ids=lambda d: d.kind)
def test_gm11_takes_the_exponential_law_under_any_name(service):
    # A constant mean residual life is the exponential law's, so gm11 takes
    # E(2) under each of its other names, with corollary1's and E(2)'s value.
    require("gm11", DROPPING, service)
    y = Uniform(0.0, 2.0)
    r = ESTIMATORS["gm11"].calls[DROPPING](Pair(y, service))
    assert r.value == corollary_one(Pair(y, service), DROPPING).value
    assert r.value == pytest.approx(
        corollary_one(Pair(y, Exponential(2.0)), DROPPING).value, rel=1e-12)


@pytest.mark.parametrize("service", [
    ShiftedExponential(2.0, 0.5), Deterministic(1.0), Uniform(0.0, 1.0)],
    ids=lambda d: d.kind)
def test_gm11_refuses_a_service_that_is_not_exponential(service):
    with pytest.raises(ValueError, match="exponential service"):
        require("gm11", DROPPING, service)


def test_mm11_values():
    # M/M/1/1 dropping is the exact age and the G/M bound at exponential arrivals.
    exact = exact_age(Pair(Exponential(1.0), Exponential(1.0)), DROPPING)
    bound = corollary_one(Pair(Exponential(1.0), Exponential(1.0)), DROPPING)
    assert (exact.value, bound.value) == (pytest.approx(2.5), pytest.approx(3.0))
    exact = exact_age(Pair(Exponential(2.0), Exponential(1.0)), DROPPING)
    assert exact.value == pytest.approx(0.5 + 2.0 - 1.0 / 3.0, rel=1e-12)
    exact = exact_age(Pair(Exponential(100.0), Exponential(1.0)), DROPPING)
    assert exact.value == pytest.approx(0.01 + 2.0 - 1.0 / 101.0, rel=1e-12)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_mm11_is_scale_free(c):
    exact = exact_age(Pair(Exponential(1.0 / c), Exponential(1.0 / c)), DROPPING)
    bound = corollary_one(Pair(Exponential(1.0 / c), Exponential(1.0 / c)), DROPPING)
    assert exact.value == pytest.approx(2.5 * c, rel=1e-9)
    assert bound.value == pytest.approx(3.0 * c, rel=1e-9)


def test_mg11_moment_arithmetic():
    # The value reads the interarrival law through its mean only.
    assert mg11_ordering_bound(Pair(Exponential(1.0), Exponential(1.0))).value == \
        pytest.approx(2.5)
    assert mg11_ordering_bound(Pair(Uniform(0.0, 2.0), Exponential(1.0))).value == \
        pytest.approx(2.5)
    assert mg11_ordering_bound(Pair(Deterministic(1.0), Deterministic(1.0))).value == \
        pytest.approx(2.25)
    assert mg11_ordering_bound(Pair(Deterministic(2.0), Deterministic(0.0))).value == \
        pytest.approx(2.0)
    with pytest.raises(ValueError):
        mg11_ordering_bound(Pair(Deterministic(0.0), Exponential(1.0)))


def test_mg11_applicability_labels():
    # With NBUE service the label is the interarrival law's own MRL
    # verdict: reversed under IMRL, conditional otherwise.
    for y in (Exponential(1.0), ShiftedExponential(1.0, 0.5),
              Hyperexponential((0.5, 0.5), (0.5, 2.0)), Uniform(0.0, 2.0)):
        verdict = y.mrl_class()
        pair = Pair(y, Exponential(1.0))
        assert pair.service.mrl_class() is MrlVerdict.CONSTANT
        assert mg11_ordering_bound(pair).applicability is (
            Applicability.REVERSED_UNDER_IMRL if verdict is MrlVerdict.IMRL
            else Applicability.REQUIRES_DMRL_NBUE), y.describe()


# The pair where the missing service premise once gave a wrong label: DMRL
# arrivals, a service that is not NBUE, and mg11 below the exact age.
NON_NBUE_SERVICE = Hyperexponential((0.99, 0.01), (5.0, 0.05))


def test_mg11_premise_not_met_without_nbue_service():
    pair = Pair(ShiftedExponential(2.0, 0.5), NON_NBUE_SERVICE)
    report = mg11_ordering_bound(pair)
    assert report.applicability is Applicability.PREMISE_NOT_MET
    assert pair.service.mrl_class() is MrlVerdict.IMRL
    exact = exact_age(pair, DROPPING)
    assert report.value == pytest.approx(4.2876, abs=1e-4)
    assert exact.value - exact.ci_half_width > report.value


def test_mg11_reversal_needs_nbue_service_too():
    # With this service and IMRL arrivals mg11 lies above the exact age
    # (six 4M-cycle simulations average 4.919 +/- 0.012), so it is no
    # lower bound there either.
    pair = Pair(Hyperexponential((0.5, 0.5), (1.0, 4.0)), NON_NBUE_SERVICE)
    report = mg11_ordering_bound(pair)
    assert report.applicability is Applicability.PREMISE_NOT_MET
    exact = exact_age(pair, DROPPING)
    assert report.value > exact.value + exact.ci_half_width


def test_mg11_takes_the_poisson_record_at_any_service_second_moment():
    # No guard of its own: E[S^2] = inf stops the matched pair's Poisson
    # record, and E[S^2] = 0 (E[S] = 1e-300) gives the matched pair's age.
    with pytest.raises(TruncationNotReached, match="E\\[K\\^2\\] overflows"):
        mg11_ordering_bound(Pair(Uniform(0.0, 2.0), Exponential(1e-300)))
    service = Exponential(1e300)
    assert service.second_moment() == 0.0
    report = mg11_ordering_bound(Pair(Uniform(0.0, 2.0), service))
    matched = exact_age(Pair(Exponential(1.0), service), DROPPING)
    assert (report.value, report.half_width) == (matched.value,
                                                 matched.ci_half_width)
    assert report.value == 1.0  # the matched pair's 1/lam + E[S]


def test_mg11_labels_imrl_arrivals_without_a_caller_verdict():
    service = Exponential(1.0)
    assert mg11_ordering_bound(Pair(
        Hyperexponential((0.5, 0.5), (0.5, 2.0)), service)).applicability is \
        Applicability.REVERSED_UNDER_IMRL
    assert mg11_ordering_bound(Pair(Erlang(2, 1.0), service)).applicability is \
        Applicability.REQUIRES_DMRL_NBUE


def test_corollary2_examples():
    r = corollary_one(Pair(Exponential(1.0), Exponential(1.0)), PREEMPTION)
    assert r.value == pytest.approx(2.5, rel=1e-9)  # 1 + 1*(0.5/0.5) + 0.5
    r = corollary_one(Pair(Deterministic(2.0), Deterministic(1.0)), PREEMPTION)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ZeroSuccessProbability):
        corollary_one(Pair(Deterministic(1.0), Deterministic(2.0)), PREEMPTION)


def test_applicability_is_mg11_specific():
    # Every bound but mg11 holds unconditionally, even at IMRL arrivals.
    pair = Pair(Hyperexponential((0.5, 0.5), (0.5, 2.0)), Exponential(1.0))
    for tag, estimator in ESTIMATORS.items():
        for call in estimator.calls.values():
            if estimator.kind not in (None, BoundKind.MG11Ordering):
                assert call(pair).applicability is \
                    Applicability.UNCONDITIONAL, tag
    assert mg11_ordering_bound(pair).applicability is \
        Applicability.REVERSED_UNDER_IMRL
    with pytest.raises(ValueError, match="positive"):
        BoundReport(value=0.0, applicability=Applicability.UNCONDITIONAL)


def test_specialization_chain_corollary1_equals_gm11():
    # With geometric K moments from p = 1 - laplace(Y, mu), the general
    # bound collapses to the closed exponential-service form
    # E[Y^2]/(2E[Y]) + E[Y] (1-p)/p + 1/mu.
    mu = 1.3
    for y in [Exponential(1.0), ShiftedExponential(1.0, 0.5),
              Deterministic(2.0), Uniform(0.0, 2.0), Erlang(2, 1.0),
              Hyperexponential((0.5, 0.5), (0.5, 2.0))]:
        p = 1.0 - y.poisson_mix(mu, 0)[0][0]
        pair = Pair(y, Exponential(mu))
        k1, k2 = k_moments(pair)
        assert k1.value == pytest.approx(1.0 / p, rel=1e-12)
        assert k2.value == pytest.approx((2.0 - p) / p**2, rel=1e-12)
        closed = (y.second_moment() / (2.0 * y.mean())
                  + y.mean() * (1.0 - p) / p + 1.0 / mu)
        general = corollary_one(pair, DROPPING)
        assert general.value == pytest.approx(closed, abs=1e-12), y.describe()


def test_specialization_chain_gm11_equals_mm11():
    # At exponential arrivals the G/M bound is the M/M/1/1 bound 1/lam + 2/mu,
    # and the exact age is that less 1/(lam + mu).
    for lam, mu in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        assert corollary_one(Pair(Exponential(lam), Exponential(mu)), DROPPING).value == \
            pytest.approx(1.0 / lam + 2.0 / mu, abs=1e-12)
        assert exact_age(Pair(Exponential(lam), Exponential(mu)), DROPPING).value == \
            pytest.approx(1.0 / lam + 2.0 / mu - 1.0 / (lam + mu), abs=1e-12)


def test_corollary1_tight_for_deterministic_interarrivals():
    # Deterministic gaps are the equality case of the general bound.
    for v, s in ((1.5, Exponential(1.0)), (1.0, Deterministic(1.5)),
                 (0.8, Uniform(0.2, 1.4))):
        y = Deterministic(v)
        bound = corollary_one(Pair(y, s), DROPPING).value
        est = exact_age(Pair(y, s), DROPPING)
        assert abs(bound - est.value) <= 3.0 * est.ci_half_width + 1e-9


def test_corollary2_dominates_exact_preemption():
    for y, s in [(Exponential(1.0), Exponential(1.0)),
                 (ShiftedExponential(1.0, 0.3), Uniform(0.1, 1.1)),
                 (Uniform(0.3, 2.0), ShiftedExponential(2.0, 0.2))]:
        bound = corollary_one(Pair(y, s), PREEMPTION).value
        exact = exact_age(Pair(y, s), PREEMPTION).value
        assert bound >= exact - 1e-9


def test_corollary1_dominates_exact_dropping():
    for y, s in [(ShiftedExponential(1.0, 0.5), Exponential(1.0)),
                 (Uniform(0.2, 1.8), ShiftedExponential(1.0, 0.1))]:
        bound = corollary_one(Pair(y, s), DROPPING).value
        est = exact_age(Pair(y, s), DROPPING)
        assert bound >= est.value - 3.0 * est.ci_half_width


def test_mg11_upper_bound_under_dmrl_and_reversal_under_imrl():
    service = Exponential(1.0)
    dmrl_y = ShiftedExponential(1.0, 0.5)
    assert dmrl_y.mrl_class() is MrlVerdict.DMRL
    exact = exact_age(Pair(dmrl_y, service), DROPPING)
    bound = mg11_ordering_bound(Pair(dmrl_y, service)).value
    assert bound >= exact.value - 3.0 * exact.ci_half_width

    imrl_y = Hyperexponential((0.5, 0.5), (0.5, 2.0))
    assert imrl_y.mrl_class() is MrlVerdict.IMRL
    exact = exact_age(Pair(imrl_y, service), DROPPING)
    lower = mg11_ordering_bound(Pair(imrl_y, service)).value
    assert lower <= exact.value + 3.0 * exact.ci_half_width
