import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from aoi import distributions
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict, Rayleigh,
                               ShiftedExponential, Uniform, expect, from_dict)
from aoi.errors import QuadratureNotConverged
import mrl_oracle

H2 = Hyperexponential(weights=(0.5, 0.5), rates=(0.5, 2.0))

ALL_KINDS = [
    Exponential(1.0),
    ShiftedExponential(1.0, 0.5),
    Deterministic(2.0),
    Uniform(0.5, 2.0),
    Rayleigh(0.8),
    Erlang(3, 2.0),
    H2,
]
CONTINUOUS = [d for d in ALL_KINDS if not isinstance(d, Deterministic)]


def dists(include_deterministic=True):
    opts = [
        st.builds(Exponential, rate=st.floats(0.1, 5.0)),
        st.builds(ShiftedExponential, rate=st.floats(0.1, 5.0),
                  shift=st.floats(0.0, 3.0)),
        st.builds(Uniform, lower=st.floats(0.0, 2.0),
                  upper=st.floats(2.5, 6.0)),
        st.builds(Rayleigh, scale=st.floats(0.1, 3.0)),
        st.builds(Erlang, shape=st.integers(1, 5), rate=st.floats(0.2, 4.0)),
        st.builds(lambda w, r1, r2: Hyperexponential((w, 1.0 - w), (r1, r2)),
                  w=st.floats(0.05, 0.95), r1=st.floats(0.1, 1.0),
                  r2=st.floats(1.5, 6.0)),
    ]
    if include_deterministic:
        opts.append(st.builds(Deterministic, value=st.floats(0.1, 5.0)))
    return st.one_of(opts)


# ---------------------------------------------------------------- sampling

def test_deterministic_sampling_is_the_point_mass():
    rng = np.random.default_rng(0)
    assert np.all(Deterministic(2.0).sample_array(rng, 20) == 2.0)


def test_exponential_sample_mean_matches_law_of_large_numbers():
    rng = np.random.default_rng(123)
    draws = Exponential(1.0).sample_array(rng, 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.01


def test_shifted_exponential_support_shift():
    rng = np.random.default_rng(7)
    draws = ShiftedExponential(1.0, 0.5).sample_array(rng, 10_000)
    assert draws.min() >= 0.5


def test_identical_seed_identical_stream():
    for dist in ALL_KINDS:
        a = dist.sample_array(np.random.default_rng(99), 1000)
        b = dist.sample_array(np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)


@given(dists())
def test_samples_stay_in_support(dist):
    lo, hi = dist.support()
    draws = dist.sample_array(np.random.default_rng(3), 200)
    assert draws.min() >= lo - 1e-12
    assert draws.max() <= hi + 1e-12


def test_kolmogorov_smirnov_against_analytic_cdf():
    # 1% critical value of the Kolmogorov distribution: sqrt(-ln(0.005)/2)/sqrt(n)
    n = 100_000
    crit = math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)
    rng = np.random.default_rng(2024)
    for dist in CONTINUOUS:
        draws = dist.sample_array(rng, n)
        stat = scipy.stats.kstest(draws, lambda x: 1.0 - dist.ccdf(x)).statistic
        assert stat < crit, f"{dist.describe()}: KS {stat:.5f} >= {crit:.5f}"


# ---------------------------------------------------------------- moments

@pytest.mark.parametrize("dist,mean,second", [
    (Exponential(1.0), 1.0, 2.0),
    (Deterministic(2.0), 2.0, 4.0),
    (ShiftedExponential(2.0, 0.5), 1.0, 0.25 + 0.5 + 0.5),
    (Uniform(0.0, 2.0), 1.0, 4.0 / 3.0),
    (Rayleigh(1.0), math.sqrt(math.pi / 2.0), 2.0),
    (Erlang(3, 2.0), 1.5, 3.0),
    (H2, 1.25, 0.5 * 8.0 + 0.5 * 0.5),
])
def test_closed_form_moments(dist, mean, second):
    assert dist.mean() == pytest.approx(mean, rel=1e-12)
    assert dist.second_moment() == pytest.approx(second, rel=1e-12)


def test_quadrature_of_density_reproduces_mean():
    for dist in CONTINUOUS:
        value, _ = expect(dist, lambda x: x)
        assert value == pytest.approx(dist.mean(), rel=1e-6), dist.describe()


def test_quadrature_that_cannot_converge_raises():
    with pytest.raises(QuadratureNotConverged):
        expect(Exponential(1.0), lambda x: np.full_like(x, np.nan))


# ---------------------------------------------------------------- ccdf

def test_ccdf_examples():
    assert Exponential(1.0).ccdf(0.0) == 1.0
    assert Deterministic(1.5).ccdf(1.0) == 1.0
    assert Deterministic(1.5).ccdf(1.5) == 0.0  # strict Pr(X > x)
    assert Uniform(0.0, 2.0).ccdf(0.5) == pytest.approx(0.75)


@given(dists(), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_ccdf_is_a_nonincreasing_probability(dist, x1, x2):
    lo, hi = sorted((x1, x2))
    c_lo, c_hi = dist.ccdf(lo), dist.ccdf(hi)
    assert 0.0 <= c_hi <= c_lo <= 1.0


def test_ccdf_at_zero_is_one_for_positive_parameters():
    for dist in ALL_KINDS:
        assert dist.ccdf(0.0) == 1.0


@pytest.mark.parametrize("shape", [1, 2, 3, 5, 20, 50])
def test_erlang_ccdf_matches_the_incomplete_gamma_oracle(shape):
    # Out to a tail of 1e-300, at rates from 1e-300 to 1e300 (x = t / rate).
    t = np.linspace(0.0, 1000.0, 20_001)
    oracle = scipy.special.gammaincc(shape, t)
    inside = oracle >= 1e-300
    assert not inside.all()
    for rate in (1e-300, 1.0, 1e300):
        got = Erlang(shape, rate).ccdf(t / rate)
        np.testing.assert_allclose(got[inside], oracle[inside], rtol=1e-12,
                                   atol=0.0)


def test_erlang_ccdf_keeps_the_mass_left_at_large_shapes():
    got = Erlang(1000, 1.0).ccdf(800.0)
    assert 1.0 - got < 1e-11
    assert got == pytest.approx(scipy.special.gammaincc(1000, 800.0),
                                rel=1e-12)


# ---------------------------------------------------------------- laplace

def test_laplace_closed_forms():
    assert Exponential(1.0).laplace(1.0) == pytest.approx(0.5, rel=1e-12)
    assert Deterministic(2.0).laplace(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert ShiftedExponential(1.0, 0.5).laplace(1.0) == pytest.approx(
        math.exp(-0.5) * 0.5, rel=1e-12)
    assert Erlang(3, 2.0).laplace(1.0) == pytest.approx((2.0 / 3.0) ** 3, rel=1e-12)
    assert H2.laplace(1.0) == pytest.approx(0.5 * (0.5 / 1.5) + 0.5 * (2.0 / 3.0),
                                            rel=1e-12)


def test_uniform_laplace_matches_closed_form_oracle():
    a, b, s = 0.5, 2.0, 1.3
    oracle = (math.exp(-s * a) - math.exp(-s * b)) / (s * (b - a))
    assert Uniform(a, b).laplace(s) == pytest.approx(oracle, rel=1e-9)
    for s in (1.3, 1e-9 / (b - a)):  # s (b - a) = 1e-9: no cancellation
        oracle, _ = scipy.integrate.quad(
            lambda x: math.exp(-s * x) / (b - a), a, b, epsabs=0.0,
            epsrel=1e-13)
        assert Uniform(a, b).laplace(s) == pytest.approx(oracle, rel=1e-11)


def test_rayleigh_laplace_matches_closed_form_oracle():
    # E[e^{-sX}] = 1 - sigma*s*sqrt(pi/2) * exp(sigma^2 s^2 / 2) * erfc(sigma*s/sqrt(2))
    sigma, s = 0.8, 1.7
    z = sigma * s
    oracle = 1.0 - z * math.sqrt(math.pi / 2.0) * math.exp(z * z / 2.0) \
        * scipy.special.erfc(z / math.sqrt(2.0))
    assert Rayleigh(sigma).laplace(s) == pytest.approx(oracle, rel=1e-8)
    for z in (1e-4, z, 6.0, 8.0, 9.9, 50.0, 1e4):
        # With x = sigma v / (1 + z) the integrand has its mass near v ~ 1
        # at every z = sigma s.
        k = 1.0 + z
        oracle, _ = scipy.integrate.quad(
            lambda v: v / k**2 * math.exp(-z * v / k - 0.5 * (v / k) ** 2),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        assert Rayleigh(sigma).laplace(z / sigma) == pytest.approx(
            oracle, rel=1e-11)


@given(dists(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_laplace_is_one_at_zero_and_nonincreasing(dist, s1, s2):
    assert dist.laplace(0.0) == 1.0
    lo, hi = sorted((s1, s2))
    # slack covers the rounding of the closed forms
    assert dist.laplace(hi) <= dist.laplace(lo) + 1e-15


# ---------------------------------------------------------------- MRL

def mean_residual_life(dist, t):
    """m(t) = E[(X - t)^+] / Pr(X > t), the numerator from one
    :func:`expect` call cut at t."""
    excess, _ = expect(dist, lambda x: np.maximum(x - t, 0.0),
                       extra_breakpoints=(t,))
    return excess / dist.ccdf(t)


def test_exponential_mrl_is_memoryless():
    for lam in (0.5, 1.0, 3.0):
        for t in (0.0, 0.7, 4.2):
            assert mean_residual_life(Exponential(lam), t) == pytest.approx(
                1.0 / lam, abs=1e-8)


def test_deterministic_mrl_counts_down():
    assert mean_residual_life(Deterministic(2.0), 0.5) == pytest.approx(1.5)


def _hyperexponential_mrl(dist, t):
    # For a mixture of exponentials the tail integral is elementary:
    # m(t) = sum w_i/r_i e^{-r_i t} / sum w_i e^{-r_i t}
    pairs = list(zip(dist.weights, dist.rates))
    num = sum(w / r * math.exp(-r * t) for w, r in pairs)
    den = sum(w * math.exp(-r * t) for w, r in pairs)
    return num / den


def test_hyperexponential_mrl_matches_oracle_and_increases():
    ts = np.linspace(0.0, 6.0, 13)
    values = [mean_residual_life(H2, t) for t in ts]
    for t, m in zip(ts, values):
        assert m == pytest.approx(_hyperexponential_mrl(H2, t), rel=1e-7)
    assert values[0] == pytest.approx(1.25, rel=1e-9)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_shifted_exponential_mrl_matches_piecewise_oracle():
    dist = ShiftedExponential(1.0, 1.0)
    for t in (0.0, 0.25, 0.5, 0.9):
        assert mean_residual_life(dist, t) == pytest.approx((1.0 - t) + 1.0,
                                                            rel=1e-7)
    for t in (1.0, 2.0, 5.0):
        assert mean_residual_life(dist, t) == pytest.approx(1.0, rel=1e-7)


MRL_CASES = [
    (Exponential(1.0), MrlVerdict.CONSTANT, True),
    (ShiftedExponential(1.0, 1.0), MrlVerdict.DMRL, True),
    (H2, MrlVerdict.IMRL, False),
    (Deterministic(2.0), MrlVerdict.DMRL, True),
    (Uniform(0.0, 2.0), MrlVerdict.DMRL, True),
    (Rayleigh(1.0), MrlVerdict.DMRL, True),
    (Erlang(3, 2.0), MrlVerdict.DMRL, True),
    (Hyperexponential((0.99, 0.01), (100.0, 0.01)), MrlVerdict.IMRL, False),
]

# The law of c * X, per kind.
RESCALED = {
    "exponential": lambda d, c: Exponential(d.rate / c),
    "shifted_exponential": lambda d, c: ShiftedExponential(d.rate / c,
                                                           d.shift * c),
    "deterministic": lambda d, c: Deterministic(d.value * c),
    "uniform": lambda d, c: Uniform(d.lower * c, d.upper * c),
    "rayleigh": lambda d, c: Rayleigh(d.scale * c),
    "erlang": lambda d, c: Erlang(d.shape, d.rate / c),
    "hyperexponential": lambda d, c: Hyperexponential(
        d.weights, tuple(r / c for r in d.rates)),
}


# Parameterisations at which a family's class degenerates to constant.
CONSTANT_CASES = [ShiftedExponential(1.0, 0.0), Erlang(1, 2.0),
                  Hyperexponential((0.5, 0.5), (1.0, 1.0))]


@pytest.mark.parametrize("dist,verdict,nbue", MRL_CASES)
def test_mrl_classification(dist, verdict, nbue):
    assert dist.mrl_class() is verdict
    assert verdict.nbue is nbue


@pytest.mark.parametrize("c", [1e-300, 1e-6, 1e-3, 1e3, 1e6, 1e300])
@pytest.mark.parametrize("dist,verdict,nbue", MRL_CASES)
def test_mrl_classification_is_scale_free(dist, verdict, nbue, c):
    scaled = RESCALED[dist.kind](dist, c)
    assert scaled.mrl_class() is verdict
    assert scaled.mrl_class().nbue is nbue
    for q in (0.0, 0.3, 0.9):
        t = mrl_oracle.quantile(dist, q)
        if dist.ccdf(t) > 0.0:
            assert mean_residual_life(scaled, c * t) == pytest.approx(
                c * mean_residual_life(dist, t), rel=1e-9)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("dist", [d for d, _, _ in MRL_CASES] + CONSTANT_CASES,
                         ids=lambda d: d.describe())
def test_mrl_class_matches_the_grid_oracle(dist, c):
    scaled = RESCALED[dist.kind](dist, c)
    verdict = scaled.mrl_class()
    assert mrl_oracle.classify(scaled) == (verdict.value, verdict.nbue)


@pytest.mark.parametrize("dist", CONSTANT_CASES, ids=lambda d: d.describe())
def test_degenerate_parameters_give_a_constant_mrl(dist):
    assert dist.mrl_class() is MrlVerdict.CONSTANT


def test_mrl_classes_the_grid_cannot_resolve():
    # m(t) rises by about 5e-8 over the whole support, inside the grid's
    # slack, and D(0) has no point where m is defined: DMRL holds
    # vacuously.
    assert Hyperexponential((0.5, 0.5), (1.0, 1.0000001)).mrl_class() is \
        MrlVerdict.IMRL
    assert Deterministic(0.0).mrl_class() is MrlVerdict.DMRL


@pytest.mark.parametrize("n", [10, 20])
def test_gauss_legendre_rule_matches_numpy(n):
    x, w = distributions._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    order = np.argsort(x)
    np.testing.assert_allclose(x[order], ref_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w[order], ref_w, rtol=1e-13)


def _forbid_quadpack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad was called")

    monkeypatch.setattr(scipy.integrate, "quad", forbidden)


@pytest.mark.parametrize("dist", [d for d, _, _ in MRL_CASES])
def test_mrl_grid_takes_one_adaptive_tail(dist, monkeypatch):
    # Each m(t) on a grid over the support takes its tail integral from
    # one panel quadrature (none for a point mass).
    _forbid_quadpack(monkeypatch)
    calls = []
    original = distributions._panel_quad

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(distributions, "_panel_quad", counted)
    for t in np.linspace(0.0, mrl_oracle.quantile(dist, 0.99), 5):
        if dist.ccdf(t) > 0.0:
            calls.clear()
            mean_residual_life(dist, t)
            assert len(calls) <= 1


def test_mrl_piece_that_fails_the_rule_check_is_redone_adaptively(
        monkeypatch):
    # The fast phase decays inside the first panel [t, t + E[X]]: the 10-
    # and 20-point rules disagree there, so that panel is bisected and the
    # next round evaluates the pdf inside it again.
    dist = Hyperexponential((0.99, 0.01), (100.0, 0.01))
    t = 0.001
    _forbid_quadpack(monkeypatch)
    rounds = []
    pdf = Hyperexponential.pdf

    def recorded(self, x):
        rounds.append(np.asarray(x))
        return pdf(self, x)

    monkeypatch.setattr(Hyperexponential, "pdf", recorded)
    got = mean_residual_life(dist, t)
    assert len(rounds) > 1
    assert np.any((rounds[1] > t) & (rounds[1] < t + dist.mean()))
    assert got == pytest.approx(_hyperexponential_mrl(dist, t), rel=1e-9)


def test_constant_verdict_requires_flat_curve():
    # The oracle grid's constant verdict for E(2) rests on a sampled curve
    # that stays within its slack; the closed form agrees.
    _, values = mrl_oracle.grid(Exponential(2.0))
    assert values.max() - values.min() <= mrl_oracle.REL_SLACK * 0.5
    assert Exponential(2.0).mrl_class() is MrlVerdict.CONSTANT


# ---------------------------------------------------------------- JSON

def test_json_round_trip_fixed_examples():
    spec = {"kind": "shifted_exponential", "rate": 1.0, "shift": 0.5}
    dist = from_dict(spec)
    assert dist == ShiftedExponential(1.0, 0.5)
    assert json.loads(json.dumps(dist.to_dict())) == spec


@given(dists())
def test_json_round_trip(dist):
    assert from_dict(json.loads(json.dumps(dist.to_dict()))) == dist


@pytest.mark.parametrize("bad", [
    {"kind": "exponential", "rate": 0.0},
    {"kind": "exponential", "rate": -1.0},
    {"kind": "shifted_exponential", "rate": 1.0, "shift": -0.1},
    {"kind": "uniform", "lower": 2.0, "upper": 1.0},
    {"kind": "uniform", "lower": -0.5, "upper": 1.0},
    {"kind": "rayleigh", "scale": 0.0},
    {"kind": "erlang", "shape": 0, "rate": 1.0},
    {"kind": "hyperexponential", "weights": [0.6, 0.6], "rates": [1.0, 2.0]},
    {"kind": "hyperexponential", "weights": [1.0], "rates": [1.0]},
    {"kind": "gamma", "shape": 1.0, "rate": 1.0},
    {"kind": "exponential"},
    {"kind": "exponential", "rate": 1.0, "scale": 2.0},
    {"kind": "exponential", "rate": 1e309},
    {"kind": "uniform", "lower": 0.0, "upper": math.inf},
    {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [1.0, math.inf]},
    {"kind": "hyperexponential", "weights": [0.5, math.nan], "rates": [1.0, 2.0]},
])
def test_invalid_specs_raise(bad):
    with pytest.raises(ValueError):
        from_dict(bad)
