import math

import pytest

from aoi.analytic import (exact_age_dropping, exact_age_preemption,
                          moments_of_K_dropping)
from aoi.bounds import (Applicability, BoundKind, BoundReport,
                        mg11_ordering_bound, ub_dropping_general,
                        ub_dropping_gm, ub_preemption)
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict,
                               ShiftedExponential, Uniform, classify_mrl)
from aoi.errors import ZeroSuccessProbability
from aoi.sim import Z95


def test_corollary1_plug_in_examples():
    # K moments (2, 6), (1, 1) and (2, 4): geometric with p = 1/2, K == 1
    # and K == 2.
    r = ub_dropping_general(Exponential(1.0), Exponential(1.0))
    assert (r.inputs["k_mean"], r.inputs["k_second_moment"]) == \
        (pytest.approx(2.0, rel=1e-12), pytest.approx(6.0, rel=1e-12))
    assert r.value == pytest.approx(3.0, rel=1e-12)
    r = ub_dropping_general(Deterministic(2.0), Deterministic(1.0))
    assert (r.inputs["k_mean"], r.inputs["k_second_moment"]) == (1.0, 1.0)
    assert r.value == pytest.approx(2.0, rel=1e-12)
    r = ub_dropping_general(Deterministic(1.0), Deterministic(1.5))
    assert (r.inputs["k_mean"], r.inputs["k_second_moment"]) == (2.0, 4.0)
    assert r.value == pytest.approx(2.5, rel=1e-12)
    assert r.kind is BoundKind.CorollaryOneDropping
    assert r.applicability is Applicability.UNCONDITIONAL
    assert r.half_width == 0.0


def test_corollary1_half_width_spans_the_k_moment_intervals():
    # The bound moves E[Y]/2 times the range of E[K^2]/E[K] over the
    # brackets E[K] +/- a, E[K^2] +/- b of the lattice moments.
    y, s = Uniform(0.2, 1.8), ShiftedExponential(1.0, 0.1)
    (k1, k1_se), (k2, k2_se) = moments_of_K_dropping(y, s)
    a, b = Z95 * k1_se, Z95 * k2_se
    assert 0.0 < a < k1 and b > 0.0
    ratio = k2 / k1
    spread = max((k2 + b) / (k1 - a) - ratio, ratio - (k2 - b) / (k1 + a))
    r = ub_dropping_general(y, s)
    assert r.value == pytest.approx(
        y.second_moment() / (2.0 * y.mean()) + y.mean() * (0.5 * ratio - 0.5)
        + s.mean(), rel=1e-12)
    assert r.half_width == pytest.approx(0.5 * y.mean() * spread, rel=1e-12)


def test_gm11_examples():
    r = ub_dropping_gm(Exponential(1.0), 1.0)
    assert r.value == pytest.approx(3.0, rel=1e-12)
    r = ub_dropping_gm(Deterministic(2.0), 1.0)
    assert r.value == pytest.approx(2.0 + 2.0 * (1.0 / (1.0 - math.exp(-2.0)) - 1.0),
                                    rel=1e-12)
    with pytest.raises(ValueError):
        ub_dropping_gm(Deterministic(0.0), 1.0)


def test_mm11_values():
    # M/M/1/1 dropping is the exact age and the G/M bound at exponential arrivals.
    exact = exact_age_dropping(Exponential(1.0), Exponential(1.0))
    bound = ub_dropping_gm(Exponential(1.0), 1.0)
    assert (exact.value, bound.value) == (pytest.approx(2.5), pytest.approx(3.0))
    assert bound.kind is BoundKind.GM11
    exact = exact_age_dropping(Exponential(2.0), Exponential(1.0))
    assert exact.value == pytest.approx(0.5 + 2.0 - 1.0 / 3.0, rel=1e-12)
    exact = exact_age_dropping(Exponential(100.0), Exponential(1.0))
    assert exact.value == pytest.approx(0.01 + 2.0 - 1.0 / 101.0, rel=1e-12)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_mm11_is_scale_free(c):
    exact = exact_age_dropping(Exponential(1.0 / c), Exponential(1.0 / c))
    bound = ub_dropping_gm(Exponential(1.0 / c), 1.0 / c)
    assert exact.value == pytest.approx(2.5 * c, rel=1e-9)
    assert bound.value == pytest.approx(3.0 * c, rel=1e-9)


def test_mg11_moment_arithmetic():
    # The value reads the interarrival law through its mean only.
    assert mg11_ordering_bound(Exponential(1.0), Exponential(1.0)).value == \
        pytest.approx(2.5)
    assert mg11_ordering_bound(Uniform(0.0, 2.0), Exponential(1.0)).value == \
        pytest.approx(2.5)
    assert mg11_ordering_bound(Deterministic(1.0), Deterministic(1.0)).value == \
        pytest.approx(2.25)
    assert mg11_ordering_bound(Deterministic(2.0), Deterministic(0.0)).value == \
        pytest.approx(2.0)
    with pytest.raises(ValueError):
        mg11_ordering_bound(Deterministic(0.0), Exponential(1.0))


def test_mg11_applicability_labels():
    # The label is the interarrival law's own MRL verdict: reversed under
    # IMRL, conditional otherwise.
    for y in (Exponential(1.0), ShiftedExponential(1.0, 0.5),
              Hyperexponential((0.5, 0.5), (0.5, 2.0)), Uniform(0.0, 2.0)):
        verdict = classify_mrl(y).verdict
        report = mg11_ordering_bound(y, Exponential(1.0))
        assert report.applicability is (
            Applicability.REVERSED_UNDER_IMRL if verdict is MrlVerdict.IMRL
            else Applicability.REQUIRES_DMRL_NBUE), y.describe()
        assert report.inputs["interarrival_verdict"] == verdict.value


def test_mg11_labels_imrl_arrivals_without_a_caller_verdict():
    service = Exponential(1.0)
    assert mg11_ordering_bound(
        Hyperexponential((0.5, 0.5), (0.5, 2.0)), service).applicability is \
        Applicability.REVERSED_UNDER_IMRL
    assert mg11_ordering_bound(Erlang(2, 1.0), service).applicability is \
        Applicability.REQUIRES_DMRL_NBUE


def test_corollary2_examples():
    r = ub_preemption(Exponential(1.0), Exponential(1.0))
    assert r.value == pytest.approx(2.5, rel=1e-9)  # 1 + 1*(0.5/0.5) + 0.5
    r = ub_preemption(Deterministic(2.0), Deterministic(1.0))
    assert r.value == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ZeroSuccessProbability):
        ub_preemption(Deterministic(1.0), Deterministic(2.0))


def test_applicability_is_mg11_specific():
    with pytest.raises(ValueError):
        BoundReport(value=1.0, kind=BoundKind.GM11,
                    applicability=Applicability.REQUIRES_DMRL_NBUE, inputs={})


def test_specialization_chain_corollary1_equals_gm11():
    # With geometric K moments from p = 1 - laplace(Y, mu), the general
    # bound collapses to the closed exponential-service form.
    mu = 1.3
    for y in [Exponential(1.0), ShiftedExponential(1.0, 0.5),
              Deterministic(2.0), Uniform(0.0, 2.0), Erlang(2, 1.0),
              Hyperexponential((0.5, 0.5), (0.5, 2.0))]:
        p = 1.0 - y.laplace(mu)
        general = ub_dropping_general(y, Exponential(mu))
        assert general.inputs["k_mean"] == pytest.approx(1.0 / p, rel=1e-12)
        assert general.inputs["k_second_moment"] == \
            pytest.approx((2.0 - p) / p**2, rel=1e-12)
        closed = ub_dropping_gm(y, mu).value
        assert general.value == pytest.approx(closed, abs=1e-12), y.describe()


def test_specialization_chain_gm11_equals_mm11():
    # At exponential arrivals the G/M bound is the M/M/1/1 bound 1/lam + 2/mu,
    # and the exact age is that less 1/(lam + mu).
    for lam, mu in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
        assert ub_dropping_gm(Exponential(lam), mu).value == \
            pytest.approx(1.0 / lam + 2.0 / mu, abs=1e-12)
        assert exact_age_dropping(Exponential(lam), Exponential(mu)).value == \
            pytest.approx(1.0 / lam + 2.0 / mu - 1.0 / (lam + mu), abs=1e-12)


def test_corollary1_tight_for_deterministic_interarrivals():
    # Deterministic gaps are the equality case of the general bound.
    for v, s in ((1.5, Exponential(1.0)), (1.0, Deterministic(1.5)),
                 (0.8, Uniform(0.2, 1.4))):
        y = Deterministic(v)
        bound = ub_dropping_general(y, s).value
        est = exact_age_dropping(y, s)
        assert abs(bound - est.value) <= 3.0 * est.ci_half_width + 1e-9


def test_corollary2_dominates_exact_preemption():
    for y, s in [(Exponential(1.0), Exponential(1.0)),
                 (ShiftedExponential(1.0, 0.3), Uniform(0.1, 1.1)),
                 (Uniform(0.3, 2.0), ShiftedExponential(2.0, 0.2))]:
        bound = ub_preemption(y, s).value
        exact = exact_age_preemption(y, s).value
        assert bound >= exact - 1e-9


def test_corollary1_dominates_exact_dropping():
    for y, s in [(ShiftedExponential(1.0, 0.5), Exponential(1.0)),
                 (Uniform(0.2, 1.8), ShiftedExponential(1.0, 0.1))]:
        bound = ub_dropping_general(y, s).value
        est = exact_age_dropping(y, s)
        assert bound >= est.value - 3.0 * est.ci_half_width


def test_mg11_upper_bound_under_dmrl_and_reversal_under_imrl():
    service = Exponential(1.0)
    dmrl_y = ShiftedExponential(1.0, 0.5)
    assert classify_mrl(dmrl_y).verdict is MrlVerdict.DMRL
    exact = exact_age_dropping(dmrl_y, service)
    bound = mg11_ordering_bound(dmrl_y, service).value
    assert bound >= exact.value - 3.0 * exact.ci_half_width

    imrl_y = Hyperexponential((0.5, 0.5), (0.5, 2.0))
    assert classify_mrl(imrl_y).verdict is MrlVerdict.IMRL
    exact = exact_age_dropping(imrl_y, service)
    lower = mg11_ordering_bound(imrl_y, service).value
    assert lower <= exact.value + 3.0 * exact.ci_half_width
