import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from aoi import distributions
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict, Rayleigh,
                               ShiftedExponential, Uniform, from_dict)
import mrl_oracle

H2 = Hyperexponential(weights=(0.5, 0.5), rates=(0.5, 2.0))
EPS = float(np.finfo(float).eps)

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


def unshifted(law):
    """Whether ``law`` is a mixture of Erlang blocks with no shift, the
    laws the phase records take."""
    shape = law.phases()
    return shape is not None and not shape[0]


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


# Rates far below and far above 1; at 5e-324 the scale 1/r overflows to
# inf, and so does every draw.
STREAM_RATES = [1e-300, 1.0, 3.7, 1e300, 5e-324]


def direct_draws(law, rng, n):
    """``law``'s draws as one direct NumPy call per family."""
    with np.errstate(over="ignore"):
        if isinstance(law, Exponential):
            return rng.exponential(1.0 / law.rate, n)
        if isinstance(law, ShiftedExponential):
            return law.shift + rng.exponential(1.0 / law.rate, n)
        if isinstance(law, Erlang):
            return rng.gamma(law.shape, 1.0 / law.rate, n)
        w, r = np.asarray(law.weights), np.asarray(law.rates)
        idx = rng.choice(len(r), size=n, p=w / w.sum())
        return rng.exponential(1.0 / r[idx])


@pytest.mark.parametrize("n", [1, 16384])
@pytest.mark.parametrize("rate", STREAM_RATES)
def test_seeded_streams_are_pinned(rate, n):
    # Each phase law draws the bytes of its family's direct NumPy call and
    # leaves the generator where that call does.
    laws = [Exponential(rate), ShiftedExponential(rate, 0.0),
            ShiftedExponential(rate, 0.5), ShiftedExponential(rate, 1e308),
            Erlang(1, rate), Erlang(16, rate),
            Hyperexponential((0.25, 0.75), (rate, 2.0 * rate)),
            Hyperexponential((0.2, 0.3, 0.5), (rate, 1.0, 3.7)),
            Hyperexponential((0.1, 0.2, 0.3, 0.15, 0.25),
                             (rate, 2.0 * rate, 0.5, 3.7, 1e3)),
            Hyperexponential((1e-300, 1.0), (rate, 2.0 * rate))]
    for law in laws:
        ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
        got, want = law.sample_array(ours, n), direct_draws(law, theirs, n)
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes(), law.describe()
        assert ours.bit_generator.state == theirs.bit_generator.state


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


@pytest.mark.parametrize("a,b", [(1e308, 1.7e308), (0.0, 1.7976931348623157e308),
                                 (1.7e308, 1.7976931348623157e308)])
def test_uniform_mean_past_an_overflowing_sum(a, b):
    # a + b leaves the float range; the mean, between a and b, does not
    mean = Uniform(a, b).mean()
    assert a <= mean <= b
    assert mean == 0.5 * a + 0.5 * b


@pytest.mark.parametrize("a,b", [(1.2e154, 1.3e154), (0.0, 1.3e154),
                                 (1e154, 1e154 * (1 + 1e-9)),
                                 (5e-324, 1.0), (0.0, 1e-160),
                                 (7.7e153, 7.7e153 * (1 + 1e-9))])
def test_uniform_second_moment_past_an_overflowing_sum(a, b):
    # Where (a^2 + ab + b^2)/3 leaves the float range, E[Y^2], between a^2
    # and b^2, does not; where it stays finite (a subnormal end, a sum
    # just below the overflow edge), E[Y^2] is that form, bit for bit.
    second = Uniform(a, b).second_moment()
    direct = (a * a + a * b + b * b) / 3.0
    if math.isfinite(direct):
        assert second == direct
    else:
        assert math.isfinite(second) and a * a <= second <= b * b


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


@pytest.mark.parametrize("shape", range(2, 21))
def test_erlang_ccdf_near_zero_is_a_nonincreasing_probability(shape):
    # Near t = 0 the sum of the first terms e^-t t^i / i! rounds up and
    # down about 1; 1 less the upper Poisson tail stays at most 1 and
    # falls.  Dense grids in t from 1e-12 to n/2, at rates 1e-300 to 1e300.
    for rate in (1e-300, 1.0, 1e300):
        for top in (1e-12, 1e-6, 1e-3, 1.0, 0.5 * shape):
            got = Erlang(shape, rate).ccdf(np.linspace(0.0, top, 20_001) / rate)
            assert got.max() <= 1.0, (rate, top, got.max())
            assert np.all(np.diff(got) <= 0.0), (rate, top)


def test_erlang_ccdf_keeps_the_mass_left_at_large_shapes():
    got = Erlang(1000, 1.0).ccdf(800.0)
    assert 1.0 - got < 1e-11
    assert got == pytest.approx(scipy.special.gammaincc(1000, 800.0),
                                rel=1e-12)


# ---------------------------------------------------------------- laplace

def test_laplace_closed_forms():
    # pi_0 of the mixed-Poisson law is the Laplace transform E[exp(-sX)].
    for law, want in ((Exponential(1.0), 0.5),
                      (Deterministic(2.0), math.exp(-2.0)),
                      (ShiftedExponential(1.0, 0.5), math.exp(-0.5) * 0.5),
                      (Erlang(3, 2.0), (2.0 / 3.0) ** 3),
                      (H2, 0.5 * (0.5 / 1.5) + 0.5 * (2.0 / 3.0))):
        assert law.poisson_mix(1.0, 0)[0][0] == pytest.approx(want, rel=1e-12)


def mp_laplace(law, s):
    """E[exp(-s X)] of ``law`` in mpmath, from its textbook closed form."""
    s = mpmath.mpf(s)
    if isinstance(law, Exponential):
        return law.rate / (law.rate + s)
    if isinstance(law, ShiftedExponential):
        return mpmath.exp(-s * law.shift) * law.rate / (law.rate + s)
    if isinstance(law, Deterministic):
        return mpmath.exp(-s * law.value)
    if isinstance(law, Uniform):
        a, b = mpmath.mpf(law.lower), mpmath.mpf(law.upper)
        return (mpmath.exp(-s * a) - mpmath.exp(-s * b)) / (s * (b - a))
    if isinstance(law, Rayleigh):
        t = law.scale * s / mpmath.sqrt(2)
        return 1 - mpmath.sqrt(mpmath.pi) * t * mpmath.exp(t * t) * mpmath.erfc(t)
    if isinstance(law, Erlang):
        return (law.rate / (law.rate + s)) ** law.shape
    return mpmath.fsum(w * r / (r + s) for w, r in zip(law.weights, law.rates))


RARE_PHASE = Hyperexponential((0.99999999999999, 1e-14), (1.0, 1e-16))
MIX_LAWS = ALL_KINDS + [Uniform(0.0, 1.0), RARE_PHASE, Erlang(20, 3.0)]
J_MAX = 64


def mp_block(n, rate, s, j_max):
    """pi_j and T_j of Erlang(n, rate) at s in mpmath: the negative
    binomial pmf C(n+j-1, j) q^n x^j, x = s/(rate+s) = 1 - q, and its tail
    Pr(Binomial(n+j, x) >= j+1)."""
    x = s / (rate + s)
    q = rate / (rate + s)
    return ([mpmath.binomial(n + j - 1, j) * q**n * x**j
             for j in range(j_max + 1)],
            [mpmath.fsum(mpmath.binomial(n + j, k) * x**k * q**(n + j - k)
                         for k in range(j + 1, n + j + 1))
             for j in range(j_max + 1)])


def mp_poisson(t, j_max):
    """Pr(Poisson(t) = j) and Pr(Poisson(t) > j) in mpmath."""
    return ([mpmath.exp(-t) * t**j / mpmath.factorial(j)
             for j in range(j_max + 1)],
            [mpmath.gammainc(j + 1, 0, t, regularized=True)
             for j in range(j_max + 1)])


def mp_shifted(t, base, j_max):
    """X + c at s, t = s c: Poisson(t) convolved with X's pi and T, plus
    Pr(Poisson(t) > j) in the tails."""
    pmf, tail = mp_poisson(t, j_max)
    conv = lambda a: [mpmath.fsum(pmf[i] * a[j - i] for i in range(j + 1))
                      for j in range(j_max + 1)]
    return conv(base[0]), [a + b for a, b in zip(conv(base[1]), tail)]


def mp_poisson_mix(law, s, j_max):
    """pi_j = Pr(Poisson(sX) = j) and T_j = Pr(Poisson(sX) > j) of ``law``
    in mpmath, each family from its own closed form: the negative binomial
    for the phase laws, the Poisson law for D, a shifted law as a
    convolution, U(0, c) through the regularized gamma P, pi_k =
    P(k+1, w)/w and T_k = (w P(k+1, w) - (k+1) P(k+2, w))/w, w = s c, and
    Rayleigh through I_m = int_0^inf v^m exp(-v^2/2 - z v) dv, z = scale s,
    pi_j = z^j/j! I_{j+1} and T_j = z^(j+1)/j! I_j, the I_m by their
    recurrence run forward with digits to spare."""
    s, mpf = mpmath.mpf(s), mpmath.mpf
    phases = law.phases()
    if phases is not None:
        c, (weights, shapes, rates) = phases
        parts = [mp_block(n, mpf(r), s, j_max) for n, r in zip(shapes, rates)]
        mix = tuple([mpmath.fsum(mpf(w) * p[i][j]
                                 for w, p in zip(weights, parts))
                     for j in range(j_max + 1)] for i in (0, 1))
        return mp_shifted(s * c, mix, j_max) if c else mix
    if isinstance(law, Deterministic):
        return mp_poisson(s * law.value, j_max)
    if isinstance(law, Uniform):
        return mp_uniform(mpf(law.lower), mpf(law.upper), s, j_max)
    return mp_rayleigh_tail(law.scale * s, 0, j_max)


def mp_uniform(a, b, s, j_max):
    """pi and T of U(a, b) at s in mpmath: U(0, b - a) shifted by a."""
    w = s * (b - a)
    gamma = lambda k: mpmath.gammainc(k, 0, w, regularized=True)
    base = ([gamma(k + 1) / w for k in range(j_max + 1)],
            [(w * gamma(k + 1) - (k + 1) * gamma(k + 2)) / w
             for k in range(j_max + 1)])
    return mp_shifted(s * a, base, j_max)


def mp_mills(w, m):
    """I_0..I_m at w, I_k = int_0^inf v^k exp(-v^2/2 - w v) dv: I_0 is the
    Mills ratio, I_1 = 1 - w I_0 and I_{k+1} = k I_{k-1} - w I_k, each
    step losing up to 2 log10(1 + w) digits to cancellation, which the
    caller's extra digits cover."""
    i = [mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(w * w / 2)
         * mpmath.erfc(w / mpmath.sqrt(2))]
    i.append(1 - w * i[0])
    for k in range(1, m):
        i.append(k * i[k - 1] - w * i[k])
    return i


def mp_rayleigh_tail(z, tau, j_max):
    """pi and T at z = scale s of the Rayleigh tail past tau scales, whose
    density in units of the scale is (v + tau) exp(-v^2/2 - tau v):
    pi_j = z^j/j! (I_{j+1} + tau I_j) and T_j = z^(j+1)/j! I_j, the I at
    z + tau, tau = 0 the law itself."""
    with mpmath.extradps(int((j_max + 2) * 2 * math.log10(1.0 + float(z + tau)))
                         + 20):
        i = mp_mills(z + tau, j_max + 1)
        return ([z**j / mpmath.factorial(j) * (i[j + 1] + tau * i[j])
                 for j in range(j_max + 1)],
                [z**(j + 1) / mpmath.factorial(j) * i[j] for j in range(j_max + 1)])


@pytest.mark.parametrize("x", [1e-14, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 9.99,
                               10.01, 1e3, 1e6])
@pytest.mark.parametrize("law", MIX_LAWS, ids=lambda d: d.describe())
def test_poisson_mix_keeps_full_relative_precision(law, x):
    # pi_j and T_j, j <= 64, at s E[X] = x against mpmath at 80 digits,
    # which leave at least 40 after the references' cancellations.  A
    # reference below the normal float range, e^-(s E[X]) at s E[X] = 1e6,
    # must come out below it too.  pi_0, T_0, pi_1 and T_1 are the Laplace
    # transform, its complement, s E[X e^-sX] and E[1 - e^-sX (1 + sX)].
    # Each j_max takes its own terms past j_max, and must agree.
    s = x / law.mean()
    with mpmath.workdps(80):
        reference = mp_poisson_mix(law, s, J_MAX)
        for j_max in (0, 1, 7, J_MAX):
            mix = law.poisson_mix(s, j_max)
            for got, want in zip(mix, reference):
                assert got.shape == (j_max + 1,)
                for j, (g, w) in enumerate(zip(got, want)):
                    if w < sys.float_info.min:
                        assert g < sys.float_info.min, (j, g, w)
                    else:
                        assert abs(g - w) <= 8 * EPS * w, (
                            j_max, j, float(abs(g - w) / w / EPS))


def mp_residual(law, t):
    """(G, Pr(X <= t), E[X; X <= t], E[X^2; X <= t]) of ``law`` at t, and
    W's (mean, second moment, mix), mix(s) its pi and T up to j = 1 at s,
    in mpmath from each family's closed form; W None where G = 0."""
    t, mpf = mpmath.mpf(t), mpmath.mpf
    lower = lambda k, x: mpmath.gammainc(k, 0, x, regularized=True)
    if isinstance(law, Deterministic):
        v = mpf(law.value)
        if t >= v:
            return (0, 1, v, v * v), None
        return (1, 0, 0, 0), (v - t, (v - t) ** 2,
                              lambda s: mp_poisson(s * (v - t), 1))
    if isinstance(law, Uniform):
        a, b = mpf(law.lower), mpf(law.upper)
        if t >= b:
            return (0, 1, (a + b) / 2, (a * a + a * b + b * b) / 3), None
        lo = max(a - t, mpf(0))
        w = (lo, b - t, lambda s: mp_uniform(lo, b - t, s, 1))
        w = ((w[0] + w[1]) / 2, (w[0]**2 + w[0] * w[1] + w[1]**2) / 3, w[2])
        if t <= a:
            return (1, 0, 0, 0), w
        f = (t - a) / (b - a)
        return ((b - t) / (b - a), f, (t * t - a * a) / (2 * (b - a)),
                (t**3 - a**3) / (3 * (b - a))), w
    if isinstance(law, ShiftedExponential):
        r, d = mpf(law.rate), mpf(law.shift)
        if t <= d:
            c = d - t
            return (1, 0, 0, 0), (c + 1 / r, c * c + 2 * c / r + 2 / r**2,
                                  lambda s: mp_shifted(s * c, mp_block(1, r, s, 1), 1))
        x = r * (t - d)
        return ((mpmath.exp(-x), lower(1, x),
                 d * lower(1, x) + lower(2, x) / r,
                 d * d * lower(1, x) + 2 * d * lower(2, x) / r
                 + 2 * lower(3, x) / r**2),
                (1 / r, 2 / r**2, lambda s: mp_block(1, r, s, 1)))
    sigma = mpf(law.scale)
    tau = t / sigma
    x = tau * tau / 2
    with mpmath.extradps(20):
        i = mp_mills(tau, 1)
    below = sigma * (mpmath.sqrt(mpmath.pi / 2) * mpmath.erf(tau / mpmath.sqrt(2))
                     - tau * mpmath.exp(-x))
    return ((mpmath.exp(-x), -mpmath.expm1(-x), below,
             2 * sigma**2 * lower(2, x)),
            (sigma * i[0], 2 * sigma**2 * i[1],
             lambda s: mp_rayleigh_tail(sigma * s, tau, 1)))


def _assert_close(got, want, where):
    """Within 8 eps of an mpmath value, or below the normal float range
    with it."""
    if want < sys.float_info.min:
        assert got < sys.float_info.min, (where, got, want)
    else:
        assert abs(got - want) <= 8 * EPS * want, (
            where, got, float(want), float(abs(got - want) / want / EPS))


RESIDUAL_LAWS = [Deterministic(2.0), Uniform(0.5, 2.0), Uniform(0.5, 1.5),
                 ShiftedExponential(1.0, 0.5), ShiftedExponential(2.0, 0.0),
                 Rayleigh(0.8)]


def test_a_phase_residual_past_all_mass_is_the_point_at_zero():
    # Pr(X > 2e4) = e^-2e4 underflows, so W is D(0): no mass left, and X's
    # whole mean and second moment lie below t.
    rest = Exponential(1.0).residual(2e4)
    assert (rest.ccdf, rest.mean, rest.second_moment) == (0.0, 0.0, 0.0)
    assert (rest.cdf, rest.below, rest.below_square) == (1.0, 1.0, 2.0)
    pi, tail = rest.poisson_mix(1.5, 3)
    assert pi.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert tail.tolist() == [0.0] * 4


def test_a_phase_residual_mixes_the_blocks_left():
    # Erlang(3, 2) at t = 1 has run k < 3 phases with chance Pr(N = k),
    # N ~ Poisson(2): W mixes Erlang(3 - k, 2) in those weights, and its
    # mixed-Poisson law is the mix of their negative binomials.
    s, j_max = 1.5, 5
    with mpmath.workdps(40):
        weights = [mpmath.exp(-2) * mpmath.mpf(2)**k / mpmath.factorial(k)
                   for k in range(3)]
        parts = [mp_block(3 - k, mpmath.mpf(2), mpmath.mpf(s), j_max)
                 for k in range(3)]
        want = [[mpmath.fsum(w * p[i][j] for w, p in zip(weights, parts))
                 / mpmath.fsum(weights) for j in range(j_max + 1)]
                for i in (0, 1)]
        got = Erlang(3, 2.0).residual(1.0).poisson_mix(s, j_max)
        for name, g, w in zip(("pi", "T"), got, want):
            for j in range(j_max + 1):
                _assert_close(g[j], w[j], (name, j))


def test_an_infinite_service_mean_is_refused():
    # A phase of rate 5e-324 has mean 2e323, past the float range.
    with pytest.raises(ValueError, match="service law must have a finite"):
        distributions.check_pair(
            Exponential(1.0), Hyperexponential((0.5, 0.5), (5e-324, 1.0)))


@pytest.mark.parametrize("law", RESIDUAL_LAWS, ids=lambda d: d.describe())
def test_residual_keeps_full_relative_precision(law):
    # G, Pr(X <= t), the partial moments and W's mean, second moment and
    # pi_0, pi_1 and T_1 at s E[X] = 1e-6, 1 and 1e3, at t/E[X] = 0, 1e-8,
    # 0.5, 1 and 3, and for the Rayleigh law out to tau = t/scale = 40,
    # against mpmath at 40 digits.
    ts = [q * law.mean() for q in (0.0, 1e-8, 0.5, 1.0, 3.0)]
    if isinstance(law, Rayleigh):
        ts += [tau * law.scale for tau in (0.5, 3.0, 10.0, 40.0)]
    with mpmath.workdps(40):
        for t in ts:
            rest = law.residual(t)
            at, w = mp_residual(law, t)
            for name, g, want in zip(("G", "F", "below", "below_square"),
                                     rest[:4], at):
                _assert_close(g, want, (t, name))
            if w is None:
                assert rest.ccdf == 0.0
                continue
            _assert_close(rest.mean, w[0], (t, "mean"))
            _assert_close(rest.second_moment, w[1], (t, "second"))
            for x in (1e-6, 1.0, 1e3):
                s = x / law.mean()
                (pi, tail), (mp_pi, mp_tail) = rest.poisson_mix(s, 1), w[2](s)
                for name, g, want in (("pi_0", pi[0], mp_pi[0]),
                                      ("pi_1", pi[1], mp_pi[1]),
                                      ("T_1", tail[1], mp_tail[1])):
                    _assert_close(g, want, (t, x, name))


@dataclass(frozen=True)
class ShiftedErlang3(distributions._PhaseMix):
    """c + Erlang(3, rate): fields, a kind and a phase shape, nothing else."""

    rate: float
    shift: float
    kind: ClassVar[str] = "shifted_erlang_3"

    def phases(self):
        return self.shift, ((1.0,), (3,), (self.rate,))


def mp_shifted_erlang3(law, t):
    """:func:`mp_residual` of c + Erlang(3, r): before c, W = (c - t) + B;
    past it, with x = r (t - c), E[B^m; B <= t - c] = 3..(2+m)/r^m
    P(3+m, x), and W mixes Erlang(3 - k, r), k < 3, in the Poisson(x)
    weights of k phases run."""
    mpf = mpmath.mpf
    r, c, t = mpf(law.rate), mpf(law.shift), mpf(t)
    if t < c:
        d = c - t
        return (1, 0, 0, 0), (d + 3 / r, d * d + 6 * d / r + 12 / r**2,
                              lambda s: mp_shifted(s * d, mp_block(3, r, s, 1), 1))
    x = r * (t - c)
    lower = lambda k: mpmath.gammainc(k, 0, x, regularized=True)
    f, b1, b2 = lower(3), 3 / r * lower(4), 12 / r**2 * lower(5)
    left = [mpmath.exp(-x) * x**k / mpmath.factorial(k) for k in range(3)]
    g = mpmath.fsum(left)
    parts = lambda s: [(p / g, mp_block(3 - k, r, s, 1)) for k, p in enumerate(left)]
    return ((g, f, c * f + b1, c * c * f + 2 * c * b1 + b2),
            (mpmath.fsum(p * (3 - k) / r for k, p in enumerate(left)) / g,
             mpmath.fsum(p * (3 - k) * (4 - k) / r**2
                         for k, p in enumerate(left)) / g,
             lambda s: tuple([mpmath.fsum(w * b[i][j] for w, b in parts(s))
                              for j in range(2)] for i in (0, 1))))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_a_phase_shape_alone_is_a_law(scale):
    # A law that gives only its phase shape has the second moment, the
    # residual before, at and past its shift, and the sampler of c plus
    # its blocks.
    law = ShiftedErlang3(2.0 / scale, 0.5 * scale)
    with mpmath.workdps(40):
        r, c = mpmath.mpf(law.rate), mpmath.mpf(law.shift)
        _assert_close(law.second_moment(), c * c + 6 * c / r + 12 / r**2,
                      "second")
        for t in (0.0, 0.5 * law.shift, law.shift, law.shift + 0.5 * scale,
                  law.shift + 4.0 * scale):
            rest = law.residual(t)
            at, w = mp_shifted_erlang3(law, t)
            for name, g, want in zip(("G", "F", "below", "below_square"),
                                     rest[:4], at):
                _assert_close(g, want, (t, name))
            _assert_close(rest.mean, w[0], (t, "mean"))
            _assert_close(rest.second_moment, w[1], (t, "second"))
            for x in (1e-6, 1.0, 1e3):
                s = x / law.mean()
                (pi, tail), (mp_pi, mp_tail) = rest.poisson_mix(s, 1), w[2](s)
                for name, g, want in (("pi_0", pi[0], mp_pi[0]),
                                      ("pi_1", pi[1], mp_pi[1]),
                                      ("T_1", tail[1], mp_tail[1])):
                    _assert_close(g, want, (t, x, name))
    draws = law.sample_array(np.random.default_rng(5), 40_000)
    se = math.sqrt((law.second_moment() - law.mean() ** 2) / draws.size)
    assert abs(draws.mean() - law.mean()) <= 5 * se


@pytest.mark.parametrize("s", [1e-6, 0.3, 1.0, 7.0, 1e3])
def test_rayleigh_tail_at_zero_is_the_law(s):
    law = Rayleigh(0.8)
    for got, want in zip(law.residual(0.0).poisson_mix(s, 12),
                         law.poisson_mix(s, 12)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("j_max,zs", [(0, np.linspace(0.5, 20.0, 391)),
                                      (7, np.linspace(0.25, 20.0, 80))],
                         ids=["j_max=0", "j_max=7"])
def test_rayleigh_mix_across_the_continued_fraction(j_max, zs):
    # Around z sqrt(j_max + 2) = 1.5, where the forward ratios hand over
    # to the continued fraction, and up to z = 20: formed as 1 - z g, L(s)
    # would lose about z^2 ulps, 100 at z = 10.
    law = Rayleigh(1.0)
    with mpmath.workdps(80):
        for z in zs:
            got = law.poisson_mix(z, j_max)
            for g, w in zip(got, mp_poisson_mix(law, z, j_max)):
                for j in range(j_max + 1):
                    assert abs(g[j] - w[j]) <= 8 * EPS * w[j], (z, j)


def test_rayleigh_mix_past_the_float_range_of_z():
    # z = scale s = 8e329 overflows a double: there every pi_j, about
    # (j+1)/z^2, is 0 and every tail 1, with no warning.
    pi, tail = Rayleigh(8e29).poisson_mix(1e300, 3)
    assert pi.tolist() == [0.0] * 4 and tail.tolist() == [1.0] * 4


@pytest.mark.parametrize("law,s,js", [
    (Deterministic(12000.0), 1.0, range(11000, 12401, 50)),
    (Deterministic(1e6), 1.0, range(999_900, 1_000_101, 20)),
    (Uniform(0.0, 12000.0), 1.0, [*range(0, 12101, 550), 12100]),
    (Uniform(0.0, 2.0), 6000.0, [0, 6999, 7000, 11999, 12000, 12100]),
], ids=["D(12000)", "D(1e6)", "U(0,12000)", "U(0,2)@6000"])
def test_poisson_mix_past_the_long_double_exponent_range(law, s, js):
    # At s X >= 11356, e^-(s X) is not a normal long double: the Poisson
    # terms come from logs, and j_max past s X / 2 needs the whole law past
    # j_max, which a head of j_max + 3 terms once stood in for.
    j_max = max(js)
    with mpmath.workdps(40):
        pi, tail = law.poisson_mix(s, j_max)
        for j in js:
            if isinstance(law, Deterministic):
                t = mpmath.mpf(s * law.value)
                want = (mpmath.exp(j * mpmath.log(t) - t - mpmath.loggamma(j + 1)),
                        mpmath.gammainc(j + 1, 0, t, regularized=True))
            else:
                w = mpmath.mpf(s * law.upper)
                gamma = lambda k: mpmath.gammainc(k, 0, w, regularized=True)
                want = (gamma(j + 1) / w,
                        (w * gamma(j + 1) - (j + 1) * gamma(j + 2)) / w)
            for g, w in zip((pi[j], tail[j]), want):
                assert abs(g - w) <= 8 * EPS * w, (j, float(g), float(w))


def test_the_long_double_carries_a_64_bit_mantissa():
    # The mixed-Poisson terms are held to 8 eps by working in NumPy's long
    # double, the x87 80-bit format on x86-64 Linux.  Where long double is
    # only a double (Windows, Apple silicon), poisson_mix would lose digits
    # without any other test naming the cause.
    assert np.finfo(np.longdouble).nmant >= 63, (
        "poisson_mix assumes a long double of at least 64 bits of mantissa "
        f"(x86-64 Linux); this platform has {np.finfo(np.longdouble).nmant}")


def test_poisson_mix_at_zero_and_its_domain():
    for law in MIX_LAWS:
        pi, tail = law.poisson_mix(0.0, 3)
        assert pi.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert tail.tolist() == [0.0] * 4
        assert law.poisson_mix(0.0, 0)[0][0] == 1.0
        for j_max in (3, 0):
            with pytest.raises(ValueError):
                law.poisson_mix(-1.0, j_max)


def test_uniform_laplace_matches_closed_form_oracle():
    a, b, s = 0.5, 2.0, 1.3
    oracle = (math.exp(-s * a) - math.exp(-s * b)) / (s * (b - a))
    assert Uniform(a, b).poisson_mix(s, 0)[0][0] == pytest.approx(oracle, rel=1e-9)
    for s in (1.3, 1e-9 / (b - a)):  # s (b - a) = 1e-9: no cancellation
        oracle, _ = scipy.integrate.quad(
            lambda x: math.exp(-s * x) / (b - a), a, b, epsabs=0.0,
            epsrel=1e-13)
        assert Uniform(a, b).poisson_mix(s, 0)[0][0] == pytest.approx(oracle, rel=1e-11)


def test_rayleigh_laplace_matches_closed_form_oracle():
    # E[e^{-sX}] = 1 - sigma*s*sqrt(pi/2) * exp(sigma^2 s^2 / 2) * erfc(sigma*s/sqrt(2))
    sigma, s = 0.8, 1.7
    z = sigma * s
    oracle = 1.0 - z * math.sqrt(math.pi / 2.0) * math.exp(z * z / 2.0) \
        * scipy.special.erfc(z / math.sqrt(2.0))
    assert Rayleigh(sigma).poisson_mix(s, 0)[0][0] == pytest.approx(oracle, rel=1e-8)
    for z in (1e-4, z, 6.0, 8.0, 9.9, 50.0, 1e4):
        # With x = sigma v / (1 + z) the integrand has its mass near v ~ 1
        # at every z = sigma s.
        k = 1.0 + z
        oracle, _ = scipy.integrate.quad(
            lambda v: v / k**2 * math.exp(-z * v / k - 0.5 * (v / k) ** 2),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        assert Rayleigh(sigma).poisson_mix(z / sigma, 0)[0][0] == pytest.approx(
            oracle, rel=1e-11)


@given(dists(), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_laplace_is_one_at_zero_and_nonincreasing(dist, s1, s2):
    assert dist.poisson_mix(0.0, 0)[0][0] == 1.0
    lo, hi = sorted((s1, s2))
    # slack covers the rounding of the closed forms
    assert dist.poisson_mix(hi, 0)[0][0] <= dist.poisson_mix(lo, 0)[0][0] + 1e-15


# ---------------------------------------------------------------- MRL

def mean_residual_life(dist, t):
    """m(t) = E[X - t | X > t], the mean of the law's residual at t."""
    return dist.residual(t).mean


@pytest.mark.parametrize("dist", [*ALL_KINDS, Uniform(0.5, 1.5),
                                  ShiftedExponential(2.0, 0.0)],
                         ids=lambda d: d.describe())
def test_mean_residual_life_matches_the_mrl_oracle(dist):
    # The residual's mean against the oracle's QUADPACK tail integral over
    # the ccdf, on the oracle's own grid.
    ts, values = mrl_oracle.grid(dist)
    got = [mean_residual_life(dist, t) for t in ts]
    np.testing.assert_allclose(got, values, rtol=1e-9, atol=0.0)


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


@pytest.mark.parametrize("law", ALL_KINDS + CONSTANT_CASES,
                         ids=lambda d: d.describe())
def test_only_erlang_mixtures_name_their_blocks(law):
    # SE(r, c) names E(r)'s block after its shift, so SE(r, 0) is E(r).
    if isinstance(law, Exponential):
        assert law.phases() == (0.0, ((1.0,), (1,), (law.rate,)))
    elif isinstance(law, ShiftedExponential):
        assert law.phases() == (law.shift, ((1.0,), (1,), (law.rate,)))
    elif isinstance(law, Erlang):
        assert law.phases() == (0.0, ((1.0,), (law.shape,), (law.rate,)))
    elif isinstance(law, Hyperexponential):
        assert law.phases() == (0.0, (law.weights, (1,) * len(law.rates),
                                      law.rates))
    else:
        assert law.phases() is None


# SE(r, c) at each rate r, c = None standing for E(r) itself.
ONE_PHASE = [(r, c)
             for r in [1e-300, 1e-160, 1e-3, 0.7, 1.0, 3.0, 1e160, 1e300]
             for c in (None, 0.0, 1e-300, 0.5 / r, 1e300 / r)
             if c is None or math.isfinite(c)]


@pytest.mark.parametrize("rate,shift", ONE_PHASE, ids=[
    str(r) if c is None else f"SE-{r}-{c}" for r, c in ONE_PHASE])
def test_exponential_is_the_one_phase_mix_bit_for_bit(rate, shift):
    # The mixture code at one phase gives the exponential law's one-line
    # formulas exactly, overflow and underflow included: its mixed-Poisson
    # law in long doubles, rounded once.  SE(r, c), its shift c read from
    # its phase shape, gives the ccdf 1 before c and E(r)'s after it, and
    # E(r)'s mixed-Poisson law shifted by c.
    one = Exponential(rate)
    law = one if shift is None else ShiftedExponential(rate, shift)
    c = shift or 0.0
    xs = np.concatenate([[0.0, np.inf, c, np.nextafter(c, 0.0),
                          np.nextafter(c, np.inf)],
                         np.geomspace(1e-300, 1e300, 61),
                         c + np.geomspace(1e-3, 1e3, 13) / rate])
    square = rate * rate
    assert law.mean() == c + 1.0 / rate
    if law is one:
        assert law.second_moment() == (2.0 / square if square
                                       else 2.0 / rate / rate)
    with np.errstate(over="ignore"):
        want = np.where(xs < c, 1.0, np.exp(-rate * np.maximum(xs - c, 0.0)))
        assert law.ccdf(xs).tobytes() == want.tobytes()
        for x, v in zip(xs, want):
            assert law.ccdf(x) == float(v)
    for s in [1e-300, 1e-5, 0.5, 2.0, 1e5, 1e300, rate, 1e-3 * rate]:
        pi, tail = law.poisson_mix(s, 8)
        shifted = distributions._mixed(lambda t, j: distributions._shifted(
            t * c, one._poisson_mix(t, j), j), s, 8)
        assert [pi.tobytes(), tail.tobytes()] == [v.tobytes() for v in shifted]
        if not c:
            r, t = np.longdouble(rate), np.longdouble(s)
            assert law.poisson_mix(s, 0)[0][0] == pi[0] == float(r / (r + t))
            assert tail[0] == float(t / (r + t))
    assert law.support() == (c, math.inf)
    assert law.mrl_class() is (MrlVerdict.DMRL if c > 0
                               else MrlVerdict.CONSTANT)
    assert ShiftedExponential(rate, 0.0).phases() == one.phases()


@pytest.mark.parametrize("dist,verdict,nbue", MRL_CASES)
def test_mrl_classification(dist, verdict, nbue):
    assert dist.mrl_class() is verdict
    assert verdict.nbue is nbue


@pytest.mark.parametrize("shape", [
    (0.0, ((0.5, 0.3, 0.2), (3, 2, 1), (1.0, 1.0, 1.0))),
    (1.0, ((0.5, 0.5), (1, 1), (0.5, 2.0))),
], ids=["erlang-residual", "shifted-h2"])
def test_a_phase_shape_with_no_mrl_verdict_is_refused(shape):
    # Only a mixture of one-phase blocks at c = 0 is DFR, so IMRL.  An
    # Erlang(3, 1) residual is IFR (the oracle reads DMRL, NBUE), and the
    # shifted H2's mean residual life falls and then rises (2.25, 1.25,
    # 2.00 at t = 0, 1, 5): no verdict names that yet.
    law = distributions._Blocks(shape)
    if shape[0] == 0.0:
        assert mrl_oracle.classify(law) == ("DMRL", True)
    with pytest.raises(ValueError, match="no MRL verdict"):
        law.mrl_class()
    assert distributions._Blocks((0.0, H2.phases()[1])).mrl_class() is (
        MrlVerdict.IMRL)


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
    {"kind": "shifted_exponential", "rate": 0.0, "shift": 1.0},
    {"kind": "deterministic", "value": -1.0},
    {"kind": "erlang", "shape": 2, "rate": 0.0},
    {"kind": "hyperexponential", "weights": [1.5, -0.5], "rates": [1.0, 2.0]},
    {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [1.0, 0.0]},
    {"kind": "erlang", "shape": True, "rate": 1.0},
    {"kind": "exponential", "rate": True},
    {"kind": "uniform", "lower": False, "upper": True},
    {"kind": "deterministic", "value": True},
    {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [1.0, True]},
    {},
])
def test_invalid_specs_raise(bad):
    with pytest.raises(ValueError):
        from_dict(bad)


@pytest.mark.parametrize("bad", [10**400, math.inf, math.nan, True],
                         ids=["int-past-float", "inf", "nan", "bool"])
@pytest.mark.parametrize("law,name", [
    (law, f.name) for law in ALL_KINDS for f in fields(law)],
    ids=lambda v: v if isinstance(v, str) else v.kind)
def test_a_law_built_in_python_refuses_a_bad_number(law, name, bad):
    # Built directly, not through from_dict: True is the int 1 and inf
    # passes a positivity check, and an int past the float range once
    # ended in an OverflowError at first use.  One entry of a tuple is
    # enough.
    value = getattr(law, name)
    value = (value[0], bad) if isinstance(value, tuple) else bad
    what = "a number" if bad is True else "finite"
    with pytest.raises(ValueError, match=rf"^parameter '{name}' of kind "
                       rf"'{law.kind}' must be {what}, got "):
        replace(law, **{name: value})
