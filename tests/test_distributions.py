import json
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict, Rayleigh,
                               ShiftedExponential, Uniform, classify_mrl,
                               expect, from_dict, mean_residual_life)
from aoi.errors import TailEmpty

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


@given(dists(include_deterministic=False), st.floats(0.01, 0.99))
def test_quantile_inverts_the_cdf(dist, p):
    q = dist.quantile(p)
    assert dist.ccdf(q) == pytest.approx(1.0 - p, abs=1e-9)


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


def test_rayleigh_laplace_matches_closed_form_oracle():
    # E[e^{-sX}] = 1 - sigma*s*sqrt(pi/2) * exp(sigma^2 s^2 / 2) * erfc(sigma*s/sqrt(2))
    sigma, s = 0.8, 1.7
    z = sigma * s
    oracle = 1.0 - z * math.sqrt(math.pi / 2.0) * math.exp(z * z / 2.0) \
        * scipy.special.erfc(z / math.sqrt(2.0))
    assert Rayleigh(sigma).laplace(s) == pytest.approx(oracle, rel=1e-8)


@given(dists(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_laplace_is_one_at_zero_and_nonincreasing(dist, s1, s2):
    assert dist.laplace(0.0) == 1.0
    lo, hi = sorted((s1, s2))
    # slack covers quadrature noise for the uniform/Rayleigh transforms
    assert dist.laplace(hi) <= dist.laplace(lo) + 5e-9


# ---------------------------------------------------------------- MRL

def test_exponential_mrl_is_memoryless():
    for lam in (0.5, 1.0, 3.0):
        for t in (0.0, 0.7, 4.2):
            assert mean_residual_life(Exponential(lam), t) == pytest.approx(
                1.0 / lam, abs=1e-8)


def test_deterministic_mrl_counts_down():
    assert mean_residual_life(Deterministic(2.0), 0.5) == pytest.approx(1.5)
    with pytest.raises(TailEmpty):
        mean_residual_life(Deterministic(2.0), 2.0)


def _h2_mrl_oracle(t):
    # For a mixture of exponentials the tail integral is elementary:
    # m(t) = sum w_i/r_i e^{-r_i t} / sum w_i e^{-r_i t}
    num = sum(w / r * math.exp(-r * t) for w, r in zip(H2.weights, H2.rates))
    den = sum(w * math.exp(-r * t) for w, r in zip(H2.weights, H2.rates))
    return num / den


def test_hyperexponential_mrl_matches_oracle_and_increases():
    ts = np.linspace(0.0, 6.0, 13)
    values = [mean_residual_life(H2, t) for t in ts]
    for t, m in zip(ts, values):
        assert m == pytest.approx(_h2_mrl_oracle(t), rel=1e-7)
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


@pytest.mark.parametrize("dist,verdict,nbue", MRL_CASES)
def test_mrl_classification(dist, verdict, nbue):
    result = classify_mrl(dist)
    assert result.verdict is verdict
    assert result.nbue is nbue
    assert len(result.grid) >= 2
    ts = [t for t, _ in result.grid]
    assert ts == sorted(ts)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
@pytest.mark.parametrize("dist,verdict,nbue", MRL_CASES)
def test_mrl_classification_is_scale_free(dist, verdict, nbue, c):
    scaled = RESCALED[dist.kind](dist, c)
    result = classify_mrl(scaled)
    assert result.verdict is verdict
    assert result.nbue is nbue
    grid = classify_mrl(dist).grid
    for t, m in (grid[0], grid[len(grid) // 2], grid[-1]):
        assert mean_residual_life(scaled, c * t) == pytest.approx(c * m,
                                                                  rel=1e-7)


def test_constant_verdict_requires_flat_curve():
    result = classify_mrl(Exponential(2.0))
    values = [m for _, m in result.grid]
    assert max(values) - min(values) <= result.tolerance


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
])
def test_invalid_specs_raise(bad):
    with pytest.raises(ValueError):
        from_dict(bad)
