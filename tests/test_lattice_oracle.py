"""The lattice records of ``aoi.analytic`` against references that share
no code with them.

Two kinds of test live here.  Primitive tests hold the discrete renewal
kernel's units, ``_renewal_sums``, ``_survival``, ``_totals`` and
``_cells``, against long-double direct solves; their contract does not
move with the lattice's step, levels or transforms.  Every other test is a
policy test: it reads only what a user sees through ``Pair.records()``,
``exact_age``, ``corollary_one`` and ``k_pmf``, and asserts that each
interval covers an independent reference and that each pair takes the
record the README's path table names.  The references are the Monte Carlo
partial-sum walk of ``walk_oracle``, the finite D/G sums and other series
in mpmath, another record that applies, and the direct solve of
``lattice_reference`` at 512 points per mean gap.  The work tests count
NumPy's FFT and the laws' ccdf calls around a public op.
(``test_module_boundaries`` holds the split.)
"""

import functools
import math
from fractions import Fraction
import tracemalloc

import mpmath
import numpy as np
import pytest

import lattice_reference
from aoi import analytic
from aoi.analytic import Interval, Pair, exact_age, k_pmf
from aoi.bounds import corollary_one
from aoi.distributions import (Deterministic, Distribution, Erlang,
                               Exponential, Hyperexponential, Rayleigh,
                               ShiftedExponential, Uniform)
from aoi.errors import TruncationNotReached
from aoi.sim import Z95, Discipline
from test_analytic import RecordPair, k_moments
from test_distributions import ALL_KINDS, RESCALED, unshifted
from test_closed_form_oracle import EPS, assert_covers, mix_pmf, mix_reference
from walk_oracle import _k_pmf_walk, dropping_walk_moments

# The general-service pairs of the benchmark's dropping workload, the last
# one deep (about 26 arrivals per cycle).
PAIRS = [
    (ShiftedExponential(0.25, 0.5), ShiftedExponential(1.0, 0.1)),
    (Exponential(1.0), Rayleigh(1.0)),
    (Exponential(1.0), Uniform(0.0, 1.0)),
    (Deterministic(0.5), Uniform(0.0, 2.0)),
    (Deterministic(0.5), Rayleigh(1.0)),
    (Rayleigh(1.0), ShiftedExponential(2.0, 0.5)),
    (Uniform(0.0, 2.0), Erlang(2, 2.0)),
    (Uniform(0.0, 0.2), Rayleigh(2.0)),
]
IDS = ["SE/SE", "E/R", "E/U", "D/U", "D/R", "R/SE", "U/Erlang", "deep-U/R"]
K_MAX = 10
DROPPING = Discipline.DROPPING
REPLICATES = 200_000


def lattice(y, s, name="lattice"):
    """Every lattice result as (value, half-width) pairs, in one order,
    from the record ``name`` where the lattice serves the pair.  An Erlang
    service leaves the lattice through :class:`Pair` for its block
    record; here the lattice itself is checked for it."""
    pair = Pair(y, s)
    if unshifted(s) or pair.cycles(DROPPING).path == "lattice":
        pair = RecordPair(y, s, name)
    est = exact_age(pair, DROPPING)
    k1, k2 = k_moments(pair)
    pmf = k_pmf(pair, K_MAX)
    return [(est.value, est.ci_half_width), k1, k2, *pmf.pmf, pmf.tail_mass]


def reference(y, s):
    """:func:`lattice`'s quantities from the direct solve of
    ``lattice_reference``, each bracketed by its two ends."""
    sums = lattice_reference.sums(y, s)
    probs, tail = lattice_reference.pmf(y, s, K_MAX)
    return [sums.age, sums.k_mean, sums.k_second,
            *map(Interval, probs.value, probs.half_width), tail]


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_lattice_agrees_with_walk(y, s):
    # The bracketing solve's proven intervals; the extrapolated ones must
    # lie inside them, as the narrower-than-the-bracket test checks.
    wm = dropping_walk_moments(y, s, REPLICATES, 2024)
    walk_pmf = _k_pmf_walk(y, s, K_MAX, REPLICATES, 2024)
    ratio = wm.ratio()
    head = y.second_moment() / (2.0 * y.mean())
    walk = ([ratio._replace(value=head + ratio.value + s.mean()),
             wm.k_mean, wm.k_second] + list(walk_pmf.pmf)
            + [walk_pmf.tail_mass])
    for i, ((value, hw), w) in enumerate(zip(lattice(y, s, "bracketing"),
                                             walk)):
        # The walk's 95% CI, its truncation bias (it stops at a 1e-8
        # share), and for a probability the 3/n an event it never drew
        # can carry.
        tol = (Z95 * w.stderr + hw + 1e-7 * abs(w.value)
               + (3.0 / REPLICATES if i >= 3 else 0.0))
        assert abs(value - w.value) <= tol, (i, value, hw, w)


@pytest.mark.parametrize("y,s", [p for p in PAIRS
                                 if isinstance(p[0], Deterministic)],
                         ids=["D/U", "D/R"])
def test_deterministic_gaps_give_the_finite_sums(y, s):
    d = y.value
    j = np.arange(1, 20_001)
    tails = s.ccdf(j * d)  # Pr(S > A_k) with A_k = (k-1) d
    k_mean = 1.0 + tails.sum()
    path = np.concatenate(([1.0], tails))
    want = ([d / 2.0 + float((j * d * tails).sum()) / k_mean + s.mean(),
             k_mean, 1.0 + float(((2 * j + 1) * tails).sum())]
            + list(path[:K_MAX] - path[1:K_MAX + 1]) + [path[K_MAX]])
    got = lattice(y, s)
    assert [v for v, _ in got] == pytest.approx(want, rel=1e-12, abs=1e-12)
    # The library's sums stop at a last point, past which a bounded
    # service has no mass: its half-widths are 0.  Rayleigh's terms past
    # it must lie inside the half-widths of the age, E[K] and E[K^2],
    # which stay under 1e-13 relative: each holds the 20000-term sum.
    hws = [hw for _, hw in got]
    if isinstance(s, Uniform):
        assert hws == [0.0] * len(want)
    else:
        for (value, hw), full in zip(got[:3], want):
            assert 0.0 < abs(full - value) <= hw <= 1e-13 * abs(value)
        assert hws[3:] == [0.0] * (len(want) - 3)


@pytest.mark.parametrize("s,ccdf", [
    (Rayleigh(1.0), lambda x: mpmath.exp(-x * x / 2)),
    (ShiftedExponential(2.0, 0.1), lambda x: mpmath.exp(-2 * (x - 0.1))),
    (Erlang(2, 2.0), lambda x: mpmath.exp(-2 * x) * (1 + 2 * x)),
    (Hyperexponential((0.99, 0.01), (5.0, 0.05)),
     lambda x: 0.99 * mpmath.exp(-5 * x) + 0.01 * mpmath.exp(-0.05 * x))],
    ids=["rayleigh", "shifted_exponential", "erlang", "hyperexponential"])
def test_deterministic_gaps_bound_the_pmf_past_the_service_top(s, ccdf):
    # Pr(K > k) = Pr(S > k d) at D arrivals.  Up to the lattice's last
    # point each Pr(K = k) is a difference of two ccdf values, exact to
    # 4 eps with a half-width of 0; past it the sums read 0, and each
    # half-width must hold the true value.  By n, where the service keeps
    # at most 1e-16 of its mass, every entry is past the last point.
    d = 0.7
    n = int(lattice_reference.last_point(s) / d) + 2
    pmf = k_pmf(RecordPair(Deterministic(d), s, "d_arrivals"), 2 * n)
    with mpmath.workdps(40):
        tail = [min(1, ccdf(k * mpmath.mpf(d))) for k in range(2 * n + 1)]
    for k, got in enumerate(pmf.pmf, start=1):
        want = float(tail[k - 1] - tail[k])
        if got.half_width or k >= n:
            assert abs(got.value - want) <= got.half_width, (k, got, want)
        else:
            assert abs(got.value - want) <= 4.0 * EPS, (k, got, want)
    assert 0.0 < float(tail[2 * n]) <= pmf.tail_mass.half_width
    assert pmf.tail_mass.value == 0.0


@pytest.mark.parametrize("y,s", [
    (Uniform(0.0, 1.0), Uniform(0.0, 2.0)),
    (Erlang(2, 4.0), Deterministic(1.0)),
    (Uniform(0.0, 0.2), Uniform(1.0, 2.0)),
    # n = 512 lattice points: 4n is a power of two, so a transform of
    # length 4n would wrap the later powers' tails onto the sums.
    (Erlang(2, 3.988), Deterministic(1.0)),
    # n = 40018 lattice points, but the powers up to K_MAX read only the
    # first K_MAX * 512 + 1 of them: the pmf transform is truncated there.
    (Uniform(0.0, 0.2), Rayleigh(2.0)),
], ids=["U/U", "Erlang/D", "deep-U/U", "Erlang/D-n512", "deep-U/R"])
def test_survival_matches_direct_convolution_powers(y, s):
    # Pr(K > k) = sum_j f^{*k}_j Pr(S > jh): each Pr(K = k) of the record
    # and its Pr(K > K_MAX) must hold the reference's interval from
    # convolution powers that no transform wraps, and be at most 2.5 times
    # as wide, plus the 2e-13 that the transform's roundoff may add where a
    # power can leave the lattice (at most 1.5e-13 here).
    assert_pmf_covers(*RecordPair(y, s).cycles(DROPPING).pmf(K_MAX),
                      *lattice_reference.pmf(y, s, K_MAX), roundoff=2e-13)


FOLD_GAPS = [Uniform(0.0, 2.0), Rayleigh(1.0),
             Hyperexponential((0.5, 0.5), (0.5, 2.0)),
             ShiftedExponential(0.25, 0.5), Erlang(2, 2.0)]
FOLD_PAIRS = [(y, s) for y in FOLD_GAPS
              for s in (ShiftedExponential(2.0, 0.5),
                        ShiftedExponential(1.0, 0.1))]
FOLD_PAIRS.append((Uniform(0.0, 0.2), ShiftedExponential(0.5, 3.0)))


def record_intervals(record):
    """E[K], E[K^2], the crossing sum and their quotient from ``record``."""
    return list(record.sums())


def fft_calls(monkeypatch):
    """The input shape and length of each ``np.fft.rfft`` call from now
    on, in order."""
    calls = []

    def recorded(a, n=None, *args, _original=np.fft.rfft):
        calls.append((np.shape(a), n))
        return _original(a, n, *args)
    monkeypatch.setattr(np.fft, "rfft", recorded)
    return calls


def assert_pmf_covers(probs, tail, want, want_tail, widest=2.5,
                      roundoff=2e-11):
    """Each Pr(K = k) and Pr(K > k_max) interval holds the reference's
    whole interval, but for 1e-13 of transform roundoff (6.6e-14 at most
    here), so neither a shifted nor an overconfident interval passes; a
    value with half-width 0 lies within 1e-13 of the reference's midpoint
    and inside its interval.  Each half-width is at most ``widest`` times
    the reference's, whose step is half the record's (at most 2.11 times
    here), plus the transform roundoff a record may carry where the powers
    can leave its lattice (at most 1.14e-11 here)."""
    for k, got, ref in zip(range(1, np.size(probs.value) + 2),
                           [*zip(*probs), tail], [*zip(*want), want_tail]):
        miss = abs(got[0] - ref[0])
        if got[1] == 0.0:
            assert miss <= min(ref[1], 1e-13), (k, got, ref)
            continue
        assert miss <= got[1], (k, got, ref)
        assert miss + ref[1] <= got[1] + 1e-13, (k, got, ref)
        assert got[1] <= widest * ref[1] + roundoff, (k, got, ref)


@pytest.mark.parametrize("y,s", FOLD_PAIRS, ids=[
    f"{y.kind}/{s.describe()}" for y, s in FOLD_PAIRS])
def test_a_folded_record_takes_the_full_lattice_sums(y, s):
    # The fold builds only the pmf: E[K], E[K^2], the crossing sum and the
    # age's middle term come from the full lattice.  The bracketing
    # record's intervals hold the reference's midpoints, and the levels'
    # lie inside them.  Phase-type gaps take their own record through
    # ``Pair``; the folded lattice is held on them by its records.
    records = Pair(y, s).records(DROPPING)
    want = lattice_reference.sums(y, s).record()
    for i, (got, ref) in enumerate(zip(record_intervals(records["bracketing"]),
                                       want)):
        assert abs(got.value - ref.value) <= got.half_width, (i, got, ref)
    for i, (got, was) in enumerate(zip(record_intervals(records["lattice"]),
                                       record_intervals(records["bracketing"]))):
        assert abs(got.value - was.value) + got.half_width <= was.half_width, (
            i, got, was)
    if not unshifted(y):
        record = Pair(y, s).cycles(DROPPING)
        assert (record.name, record.path) == ("lattice", "lattice")
        assert record_intervals(record) == record_intervals(records["lattice"])


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("y,s", FOLD_PAIRS, ids=[
    f"{y.kind}/{s.describe()}" for y, s in FOLD_PAIRS])
def test_folded_record_is_the_full_lattice(y, s, c, monkeypatch):
    # Past its shift a shifted exponential service is memoryless, so the
    # pmf's lattice folds there into closed-form weights: each Pr(K = k)
    # must hold the reference's interval, which sums every lattice point,
    # at every time scale (K's law is scale-free), and be at most 2.5
    # times as wide.  The fold is one transform, weights then gap spectra; where
    # K_MAX gaps cannot reach the shift (U(0, 0.2) against a shift of 3),
    # Pr(K > k) is M^k with no transform, each entry exact.  Phase-type
    # gaps take their own record through ``Pair``; the folded lattice is
    # held on them by its records.
    want = lattice_reference.pmf(y, s, K_MAX)
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    assert Pair(y, s).cycles(DROPPING).path == (
        "closed_form" if unshifted(y) else "lattice")
    record = Pair(y, s).records(DROPPING)["bracketing"]
    calls = fft_calls(monkeypatch)
    probs, tail = record.pmf(K_MAX)
    reaches = K_MAX * y.support()[1] >= s.support()[0]
    assert len(calls) == 2 * reaches
    assert_pmf_covers(probs, tail, *want)


COVERAGE_PAIRS = [
    (Rayleigh(0.01), ShiftedExponential(1.0, 1.0)),
    (ShiftedExponential(100.0, 0.01), ShiftedExponential(1.0, 1.0))]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("y,s", COVERAGE_PAIRS, ids=["R/SE", "SE/SE"])
def test_folded_pmf_half_width_covers_its_roundoff(y, s, c):
    # Twelve gaps almost never outlast the service's shift: a Chernoff
    # bound gives Pr(K <= 12) <= 9e-166 for R/SE and the Gamma tail
    # 4.3e-25 for SE/SE.  So every Pr(K = k) is 0 and Pr(K > 12) is 1 to
    # far below roundoff, and the fold's kernel roundoff, which no
    # rounding brackets, must hold the distance.
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    pmf = k_pmf(Pair(y, s), 12)
    assert all(abs(p.value) <= p.half_width for p in pmf.pmf), pmf.pmf
    assert abs(pmf.tail_mass.value - 1.0) <= pmf.tail_mass.half_width


def test_unfolded_pmf_half_width_covers_its_roundoff(monkeypatch):
    # As above where the service is no SE, so its pmf takes the power
    # sums: twelve R(0.01) gaps pass 1 with chance under 1e-170 (their sum
    # is at most sqrt(12) times their root sum of squares, a chi-square of
    # 24 degrees), so against U(1, 2) Pr(K > k) = 1 for k <= 12.  Twelve
    # gaps' cells reach past the lattice's end at 2, so each entry is the
    # power against G, in one transform, and carries its roundoff.
    calls = fft_calls(monkeypatch)
    pmf = k_pmf(Pair(Rayleigh(0.01), Uniform(1.0, 2.0)), 12)
    assert len(calls) == 2
    assert all(abs(p.value) <= p.half_width for p in pmf.pmf), pmf.pmf
    assert abs(pmf.tail_mass.value - 1.0) <= pmf.tail_mass.half_width


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_far_shift_folds_without_overflow():
    # rate * shift = 1000: e^(rate shift) overflows, and the fold's
    # exponents are all <= 0.  The service ends by 1.03, so E[K] is near
    # sum_k Pr(T_k < 1) = sum_k 1/(2^k k!) = e^(1/2).  The ages on the
    # levels and on the bracketing solve must be finite, and the folded
    # pmf must hold the reference's, which sums every lattice point.
    y, s = Uniform(0.0, 2.0), ShiftedExponential(1000.0, 1.0)
    pair = Pair(y, s)
    ests = [exact_age(pair, DROPPING),
            exact_age(RecordPair(y, s, "bracketing"), DROPPING)]
    for est in ests:
        assert math.isfinite(est.value) and math.isfinite(est.ci_half_width)
    assert_pmf_covers(*pair.cycles(DROPPING).pmf(K_MAX),
                      *lattice_reference.pmf(y, s, K_MAX))


def test_a_folded_pmf_reads_only_the_gaps_prefix(monkeypatch):
    # U(0, 0.2) gaps against SE(0.5, 3): the gap ccdf is 0 from 0.2 on, so
    # the pmf builder evaluates it on the b/h + 2 points that hold every
    # non-zero cell, and at (n-1)h and nh for the gap mass, not on all
    # n + 1 (about 161000) points.  The reference's step is at most the
    # record's, so b over it bounds b/h.
    y, s = Uniform(0.0, 0.2), ShiftedExponential(0.5, 3.0)
    most = 0.2 / lattice_reference.step(y, s) + 6
    points = []
    ccdf = Uniform.ccdf
    monkeypatch.setattr(Uniform, "ccdf", lambda law, x: (
        points.append(np.size(x)), ccdf(law, x))[1])
    k_pmf(Pair(y, s), K_MAX)
    assert 0 < sum(points) <= most


@pytest.mark.parametrize("y", [
    Uniform(0.0, 2.0), Rayleigh(1.0), Erlang(2, 2.0),
    Hyperexponential((0.5, 0.5), (0.5, 2.0)), ShiftedExponential(1.0, 0.3),
    Deterministic(0.7)], ids=lambda d: d.kind)
def test_an_unshifted_service_takes_the_exponential_record(y):
    # SE(r, 0) is E(r): its dropping record is E(r)'s block record, bit for
    # bit with half-width 0, not a one-point folded lattice.
    shifted = Pair(y, ShiftedExponential(1.5, 0.0))
    plain = Pair(y, Exponential(1.5))
    assert shifted.cycles(DROPPING).name == "service_blocks"
    assert plain.cycles(DROPPING).name == "service_blocks"
    assert exact_age(shifted, DROPPING) == exact_age(plain, DROPPING)
    assert exact_age(shifted, DROPPING).ci_half_width == 0.0
    assert corollary_one(shifted, DROPPING) == corollary_one(plain, DROPPING)
    assert k_pmf(shifted, K_MAX) == k_pmf(plain, K_MAX)


@pytest.mark.parametrize("y,s,k_max", [
    (Uniform(0.0, 0.02), Deterministic(1.0), 40),
    (Uniform(0.0, 0.2), ShiftedExponential(0.5, 3.0), K_MAX)],
    ids=["U/D", "U/SE"])
def test_pmf_entries_no_partial_sum_reaches_are_exact(y, s, k_max,
                                                      monkeypatch):
    # 40 gaps of at most 0.02 never reach the service time 1, nor 10 of at
    # most 0.2 the shift 3: Pr(K > k) = 1 for every k <= k_max, so every
    # Pr(K = k) is exactly 0, and each end's total gap mass is exactly 1,
    # with no transform.
    calls = fft_calls(monkeypatch)
    pmf = k_pmf(Pair(y, s), k_max)
    assert [tuple(p) for p in pmf.pmf] == [(0.0, 0.0)] * k_max
    assert tuple(pmf.tail_mass) == (1.0, 0.0)
    assert calls == []


def test_pmf_roundoff_past_the_lattice_is_in_the_half_width():
    # Up to k_max = 60 the gaps' powers can leave the lattice, so Pr(K > k)
    # sums them against G and carries the transform's roundoff, which no
    # rounding brackets: every Pr(K = k), k <= 40, is exactly 0 and must
    # lie within its half-width.
    pmf = k_pmf(Pair(Uniform(0.0, 0.02), Deterministic(1.0)), 60)
    assert all(abs(p.value) <= p.half_width for p in pmf.pmf[:40])


# Pairs whose kinks (U(0.5, 1)'s lower end, the SE gaps' shift) lie on
# every level only since the step puts every kink of both laws there:
# the first two took the bracketing solve at 1.0-1.3e-3 of the age while
# only the service's last kink was aligned, and take the levels at 2.6e-5
# and 1.1e-5.  On the other five, with D services (``EXACT_LEVELS``), E[K]
# is exact on the lattice, its levels agree to roundoff and its bracket
# is roundoff alone: they took the bracketing solve at 1.3-3.6e-4 of the
# age while such a quantity's roundoff half-width had to pass a quarter
# of its bracket.
EXACT_LEVELS = {
    (ShiftedExponential(1.0, 0.5), Deterministic(0.7)): 1.87489393228,
    (Uniform(0.5, 1.5), Deterministic(0.7)): 161 / 120,
    (Uniform(0.5, 1.5), Deterministic(1.0)): 43 / 24,
    (ShiftedExponential(1.0, 0.5), Deterministic(1.0)): 2.28925008534,
    (ShiftedExponential(0.25, 0.5), Deterministic(1.0)): 5.10609119568}
REALIGNED = [(Rayleigh(1.0), Uniform(0.5, 1.0)),
             (ShiftedExponential(1.0, 0.5), Uniform(0.0, 2.0)),
             *EXACT_LEVELS]
REALIGNED_IDS = ["R/U-kink", "SE/U", "SE/D-0.7", "U/D-0.7", "U/D-1",
                 "SE/D-1", "slow-SE/D-1"]
# Pairs whose service ends, at 0.7, long before a mean gap of 4.5: no step
# near E[Y]/64 puts every kink on every level, but the levels step from
# the service's top, where one does, and they hold, at 6.5e-7 and 2.8e-8
# of the age, where the bracketing solve gave 1.4e-4 and 7.1e-5.
TOP_ALIGNED = [(ShiftedExponential(0.25, 0.5), Uniform(0.3, 0.7)),
               (ShiftedExponential(0.25, 0.5), Deterministic(0.7))]
# A pair whose levels still fail a check, so that its sums are the
# bracketing solve's: no step in range puts both kinks, 0.5 and 0.77, on
# every level, and the observed order swings.
FIRST_ORDER = [(ShiftedExponential(0.25, 0.5), Deterministic(0.77))]


def se_gaps_d_service_age(rate, shift, d):
    """The dropping age at SE(rate, shift) gaps and a D(d) service, to 30
    digits: T_k = k shift + Gamma(k, rate), Pr(K > k) = Pr(T_k < d), and
    the crossing sum is sum_k E[T_k; T_k < d], with E[Gamma(k, rate);
    Gamma(k, rate) < x] = (k/rate) P(k + 1, rate x), P the regularized
    lower gamma function."""
    with mpmath.workdps(30):
        rate, shift, d = map(mpmath.mpf, (rate, shift, d))
        k_mean, crossing, k = mpmath.mpf(1), mpmath.mpf(0), 1
        while k * shift < d:
            x = d - k * shift
            k_mean += mpmath.gammainc(k, 0, rate * x, regularized=True)
            crossing += (k * shift * mpmath.gammainc(k, 0, rate * x,
                                                     regularized=True)
                         + k / rate * mpmath.gammainc(k + 1, 0, rate * x,
                                                      regularized=True))
            k += 1
        mean = shift + 1 / rate
        second = mean**2 + 1 / rate**2
        return float(second / (2 * mean) + crossing / k_mean + d)


@pytest.mark.parametrize("y,s", list(EXACT_LEVELS), ids=REALIGNED_IDS[2:])
def test_levels_that_agree_to_roundoff_hold_the_exact_age(y, s):
    # The five pairs whose E[K] levels agree to roundoff take their levels:
    # each age lies within its half-width of the exact one, given in closed
    # form for U gaps (K <= 2) and summed over k for SE gaps.
    want = EXACT_LEVELS[(y, s)]
    if isinstance(y, ShiftedExponential):
        exact = se_gaps_d_service_age(y.rate, y.shift, s.value)
        assert exact == pytest.approx(want, rel=0, abs=1e-11)
        want = exact
    pair = Pair(y, s)
    records = pair.records(DROPPING)
    assert records["lattice"].sums() != records["bracketing"].sums()
    est = exact_age(pair, DROPPING)
    assert est.method == "lattice"
    assert abs(est.value - want) <= est.ci_half_width <= 1e-5 * est.value


@pytest.mark.parametrize("y,s", [*PAIRS, (Rayleigh(1.0), Deterministic(0.7)),
                                 *REALIGNED],
                         ids=[*IDS, "R/D", *REALIGNED_IDS])
def test_half_width_covers_a_finer_lattice(y, s):
    # Every interval of a lattice record holds the midpoint of the
    # reference's bracket, at 512 points per mean gap with every kink on
    # a point: SE/SE's kinks lie off the record's levels, so their error
    # swings.  A D service's jump lies on both lattices, where the
    # midpoint takes the trapezoid rule's half value; its age, E[K] and
    # E[K^2] must also lie inside the reference's proven bracket, but for
    # the record's transform roundoff, under 1e-13 of the value.  E and D
    # gaps take closed-form records, proven to roundoff: each of their
    # intervals must meet the reference's.
    proven = not unshifted(s) and (
        Pair(y, s).cycles(DROPPING).path == "closed_form")
    jump = s.support()[0] == s.support()[1]
    for i, ((value, hw), ref) in enumerate(zip(lattice(y, s),
                                               reference(y, s))):
        slack = ref.half_width if proven else 0.0
        assert abs(value - ref.value) <= hw + slack, (i, value, hw, ref)
        if jump and i < 3:
            assert abs(value - ref.value) <= (
                ref.half_width + 1e-13 * abs(value)), (i, value, ref)


# The pairs of ``PAIRS`` that reach the lattice, Erlang service included.
LATTICE_PAIRS = [p for p in PAIRS if not isinstance(p[0], Deterministic)]
LATTICE_IDS = [i for i, p in zip(IDS, PAIRS) if p in LATTICE_PAIRS]
# D services, whose jump the levels put on every level.
JUMP_PAIRS = [(Uniform(0.0, 2.0), Deterministic(1.0)),
              (Rayleigh(1.0), Deterministic(0.7))]


@pytest.mark.parametrize("y,s", [*LATTICE_PAIRS, *JUMP_PAIRS],
                         ids=[*LATTICE_IDS, "U/D", "R/D"])
def test_extrapolation_is_narrower_than_the_bracketing_solve(y, s):
    # Each pair takes its levels, and each interval (E[K], E[K^2], the
    # crossing sum, its quotient by E[K] and the age) lies inside the one
    # the bracketing solve proves, and is narrower; with a block service
    # it holds the block record's closed form too.
    def intervals(name):
        pair = RecordPair(y, s, name)
        est = exact_age(pair, DROPPING)
        return [*record_intervals(pair.cycles(DROPPING)),
                Interval(est.value, est.ci_half_width)]
    new = intervals("lattice")
    if unshifted(s):
        est = exact_age(Pair(y, s), DROPPING)
        block = [*record_intervals(Pair(y, s).cycles(DROPPING)),
                 Interval(est.value, est.ci_half_width)]
        for i, (got, want) in enumerate(zip(new, block)):
            assert abs(got.value - want.value) <= got.half_width, (i, got, want)
    old = intervals("bracketing")
    for i, (got, was) in enumerate(zip(new, old)):
        assert got.half_width < was.half_width, (i, got, was)
        assert abs(got.value - was.value) + got.half_width <= was.half_width, (
            i, got, was)
    if (y, s) == PAIRS[-1]:  # the deep pair's age
        assert 100.0 * new[4].half_width <= old[4].half_width


@pytest.mark.parametrize("y,s", [p for p in LATTICE_PAIRS
                                 if isinstance(p[0], Exponential)]
                         + [PAIRS[-1], *REALIGNED, *TOP_ALIGNED,
                            *FIRST_ORDER],
                         ids=["E/R", "E/U", "deep-U/R", *REALIGNED_IDS,
                              "slow-SE/U", "slow-SE/D-0.7", "slow-SE/D-0.77"])
def test_an_order_out_of_range_takes_the_bracketing_solve(y, s):
    # The bracketing record's intervals hold the reference's midpoints, as
    # a folded one's do (test_a_folded_record_takes_the_full_lattice_sums),
    # and so do the lattice record's: where an observed order falls out of
    # range, as on the first-order pair, it takes the bracketing sums.
    # The realigned pairs and those aligned from the service's top take
    # their levels.
    want = lattice_reference.sums(y, s).record()
    records = Pair(y, s).records(DROPPING)
    lattice_sums, bracketing = (records[name].sums()
                                for name in ("lattice", "bracketing"))
    for i, intervals in enumerate(zip(lattice_sums, bracketing)):
        for got in intervals:
            assert abs(got.value - want[i].value) <= got.half_width, (
                i, got, want[i])
    if (y, s) in REALIGNED + TOP_ALIGNED:
        assert lattice_sums != bracketing
    if (y, s) in FIRST_ORDER:
        assert lattice_sums == bracketing


def test_a_deterministic_service_takes_the_levels(monkeypatch):
    # The levels put a D service's jump on every level, where the down end
    # reads 0 and the up end 1: the midpoint takes the trapezoid rule's
    # half value there, and the levels' error is a series in h^2.  The
    # record keeps the levels, three renewal transforms, each weighing c
    # and x c once per end in its first FFT and taking the gap cells'
    # spectra in its second, and its age holds the reference's midpoint.
    y, s = Rayleigh(1.0), Deterministic(0.7)
    want = lattice_reference.sums(y, s).age
    calls = fft_calls(monkeypatch)
    pair = Pair(y, s)
    est = exact_age(pair, DROPPING)
    assert len(calls) == 6
    assert [shape[:2] for shape, _ in calls[::2]] == [(2, 2)] * 3
    assert pair.cycles(DROPPING).name == "lattice"
    assert 0.0 < est.ci_half_width <= 1e-4 * est.value
    assert abs(est.value - want.value) <= est.ci_half_width


@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_only_a_point_mass_weighs_each_end_apart(s, monkeypatch):
    # Pr(S >= x) differs from Pr(S > x) only at an atom, so every other
    # service keeps one weight vector for both ends, on the renewal sums
    # and on the pmf's power sums; for U, whose upper end's left limit is
    # 0, too.  At U(0, 2) gaps every service end here lies on the pmf's
    # lattice.  The SE service's pmf takes the fold alone, whose weights,
    # each end's gap cells folded past the shift, are one set per end.
    # Each transform weighs its weights in its first FFT.
    record = Pair(Uniform(0.0, 2.0), s).records(DROPPING)["lattice"]
    calls = fft_calls(monkeypatch)
    record.sums()
    weights = [shape for shape, _ in calls[::2]]
    del calls[:]
    record.pmf(K_MAX)
    ends = (2,) if s.support()[0] == s.support()[1] else ()
    assert weights and all(shape[:-2] == ends for shape in weights)
    folded = (s.phases() or (0.0,))[0] > 0.0
    assert [shape[:-2] for shape, _ in calls[::2]] == [(2,) if folded else ends]


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("y,s", LATTICE_PAIRS, ids=LATTICE_IDS)
def test_extrapolated_age_rescales_with_time(y, s, c):
    # Rescaling every time by c rescales the age by c to within 8 eps:
    # the levels' steps rescale, and so does every point they read.  The
    # half-width, twice a step between levels, takes each level's own
    # rescaling error (from the gap law's ccdf differences and the
    # transform) over 2^p - 1, and must move by at most 8 eps of the age
    # too: the most any pair's moves is 3.7 eps (deep-U/R at c = 1e6),
    # far inside the 1e-11 of the age its roundoff term adds to it.
    base = exact_age(RecordPair(y, s), DROPPING)
    scaled = exact_age(RecordPair(RESCALED[y.kind](y, c),
                                  RESCALED[s.kind](s, c)), DROPPING)
    assert base.method == scaled.method == "lattice"
    assert abs(scaled.value - c * base.value) <= 8.0 * EPS * scaled.value
    assert abs(scaled.ci_half_width - c * base.ci_half_width) <= (
        8.0 * EPS * scaled.value)


def long_double_renewal(f, n):
    """u = delta + f*u on n points by the recursion
    u_l = (delta_l + sum_{i=1..l} f_i u_(l-i)) / (1 - f_0), and w = u*u,
    in long doubles."""
    f = np.pad(f[:n], (0, max(0, n - f.size))).astype(np.longdouble)
    u = np.zeros(n, dtype=np.longdouble)
    u[0] = 1 / (1 - f[0])
    for l in range(1, n):
        u[l] = (f[1:l + 1] @ u[l - 1::-1]) / (1 - f[0])
    return u, np.convolve(u, u)[:n]


def direct_renewal_sums(gaps, weights):
    """``_renewal_sums`` of one end's cells by :func:`long_double_renewal`:
    u against both weight rows, then 2 u*u - u against the first."""
    u, w = long_double_renewal(gaps, gaps.size)
    v = weights.astype(np.longdouble)
    return [u @ v[0], u @ v[1], (2 * w - u) @ v[0]]


@pytest.mark.parametrize("y,m", [
    (Uniform(0.0, 2.0), 64), (Uniform(0.5, 1.5), 64), (Uniform(0.0, 2.0), 256),
    (Rayleigh(1.0), 512), (ShiftedExponential(2.0, 0.5), 512)],
    ids=["U-128-cells", "U-off-origin", "U-512-cells", "R", "SE"])
def test_reference_renewal_is_the_long_double_recursion(y, m):
    # The reference's block solve on 1500 points, five blocks and a short
    # one, with gap cells shorter than a block, longer, and as long as the
    # points: u and w = u*u each within 8 eps of their largest value of the
    # recursion in long doubles (at most 0.1 and 2.5 eps measured).
    n, h = 1500, y.mean() / m
    tail = y.ccdf(h * np.arange(n + 1))
    f = np.trim_zeros(tail[:-1] - tail[1:], "b")
    for got, want in zip(lattice_reference.renewal(f, n),
                         long_double_renewal(f, n)):
        want = want.astype(float)
        assert np.abs(got - want).max() <= 8.0 * EPS * np.abs(want).max()


def test_reference_pmf_spans_the_direct_convolution_powers():
    # U(0, 2)/R(1) on the reference's 4783 points: its Pr(K = k) and
    # Pr(K > K_MAX) are the two ends' powers, convolved directly in long
    # doubles, spanned as a record spans them: each midpoint within 1e-15
    # (1.7e-16 measured), each half-width the span's plus the FFTs'
    # roundoff term, at most 1e-13 (5.5e-14 measured).
    y, s = Uniform(0.0, 2.0), Rayleigh(1.0)
    probs, tail = lattice_reference.pmf(y, s, K_MAX)
    ends = np.array([[1.0, *direct_power_sums(f, g, K_MAX)]
                     for f, g in lattice_reference.lattice(y, s).ends])
    mid, hw = Interval.between(ends.min(0), ends.max(0))
    extra = (np.append(probs.half_width, tail.half_width)
             - np.append(hw[:-1] + hw[1:], hw[-1]))
    assert np.abs(np.append(probs.value, tail.value)
                  - np.append(mid[:-1] - mid[1:], mid[-1])).max() <= 1e-15
    assert 0.0 <= extra.min() and extra.max() <= 1e-13


@pytest.mark.parametrize("y,s,m", [
    (Uniform(0.0, 0.2), Rayleigh(2.0), 8),
    (Rayleigh(1.0), Rayleigh(1.0), 256),
    (ShiftedExponential(0.25, 0.5), ShiftedExponential(1.0, 0.1), 64)],
    ids=["deep-U/R", "R/R", "SE/SE"])
def test_renewal_roundoff_bounds_a_direct_solve(y, s, m):
    # The tilted transform's roundoff, the relative bound it reports, must
    # hold every sum of both ends against a long-double recursion.
    h = y.mean() / m
    n = int(lattice_reference.last_point(s) / h) + 2
    x = h * np.arange(n)
    tail = y.ccdf(h * np.arange(n + 1))
    gaps, weights = analytic._cells(tail), np.stack((s.ccdf(x), x * s.ccdf(x)))
    sums, noise = analytic._renewal_sums(gaps, weights)
    for end in range(2):
        direct = direct_renewal_sums(gaps[end], weights)
        for value, want in zip(sums[:, end], direct, strict=True):
            assert abs(value - float(want)) <= noise * abs(float(want))


# The first four at rate 1 and time scale 1; then every family at time
# scales 1e-6, 1 and 1e6, each against arrival rates 0.5/c and 2/c.
MG11_CASES = [pytest.param(s, 1.0, id=s.describe())
              for s in (Deterministic(0.5), Deterministic(1.0),
                        Uniform(0.0, 1.0), Rayleigh(0.5))] + [
    pytest.param(RESCALED[s.kind](s, c), rate / c,
                 id=f"{s.kind}-c{c:g}-rate{rate:g}")
    for s in ALL_KINDS for c in (1e-6, 1.0, 1e6) for rate in (0.5, 2.0)]


# D(0.5), D(0.7) and D(1) at arrival rates 0.5, 1 and 2, at time scales
# 1e-6, 1 and 1e6.
JUMP_MG11_CASES = [
    pytest.param(Deterministic(v * c), rate / c,
                 id=f"D{v:g}-c{c:g}-rate{rate:g}")
    for v in (0.5, 0.7, 1.0) for rate in (0.5, 1.0, 2.0)
    for c in (1e-6, 1.0, 1e6)]


@pytest.mark.parametrize("s,lam", MG11_CASES + JUMP_MG11_CASES)
def test_half_width_covers_the_mg11_age(s, lam):
    # With Poisson arrivals the dropping age is the M/G/1/1 closed form
    # E[(Y+S)^2] / (2 E[Y+S]) + E[S].  A D service's jump lies on the
    # levels, so its age takes them too: its half-width is at most 1e-4
    # of the age (2.3e-5 at most here; 1e-3 on the bracketing solve).
    y_second = 2.0 / lam**2
    mg11 = ((y_second + 2.0 * s.mean() / lam + s.second_moment())
            / (2.0 * (1.0 / lam + s.mean())) + s.mean())
    est = exact_age(RecordPair(Exponential(lam), s), DROPPING)
    assert abs(est.value - mg11) <= est.ci_half_width
    if isinstance(s, Deterministic):
        assert est.ci_half_width <= 1e-4 * est.value


# U(0, b) gaps against D(d), d < b: Pr(K > k) = Pr(T_k < d) = (d/b)^k/k!.
UNIFORM_JUMPS = [(2.0, 1.0), (2.0, 0.3), (1.0, 0.7), (3.0, 2.0)]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("b,d", UNIFORM_JUMPS, ids=[
    f"U(0,{b:g})/D({d:g})" for b, d in UNIFORM_JUMPS])
def test_a_jump_on_the_levels_holds_the_uniform_series(b, d, c):
    # With r = d/b, E[K] = e^r, E[K^2] = sum (2k+1) r^k/k! = (2r + 1) e^r,
    # and T_j's density t^(j-1)/((j-1)! b^j) below b gives the crossing sum
    # sum_j E[T_j; T_j < d] = sum_{j>=1} d^(j+1)/((j+1) b^j (j-1)!).  Each
    # must lie within its half-width, as each Pr(K > k) must.  E[K] and
    # the age hold half-widths of at most 1e-4 of their value (at most
    # 2.4e-5 and 1.6e-5 here), E[K^2] and the crossing sum, whose
    # extrapolation steps are larger, 1e-3 (at most 1.3e-4 and 4.7e-4);
    # the bracketing solve gives 1.5e-3, 3.4e-3, 1.2e-2 and 1.5e-3 on
    # U(0, 2)/D(1).
    pair = Pair(Uniform(0.0, b * c), Deterministic(d * c))
    r = d / b
    with mpmath.workdps(30):
        crossing = c * mpmath.nsum(lambda j: mpmath.mpf(d) ** (j + 1) / (
            (j + 1) * mpmath.mpf(b) ** j * mpmath.factorial(j - 1)),
            [1, mpmath.inf])
        want = [mpmath.exp(r), (2 * r + 1) * mpmath.exp(r), crossing]
        survival = [mpmath.mpf(r) ** k / mpmath.factorial(k)
                    for k in range(K_MAX + 1)]
    record = pair.cycles(DROPPING)
    assert record.path == "lattice"
    sums = record.sums()[:3]
    for i, (got, exact) in enumerate(zip(sums, want)):
        assert abs(got.value - float(exact)) <= got.half_width, (i, got, exact)
    assert sums[0].half_width <= 1e-4 * sums[0].value
    assert all(got.half_width <= 1e-3 * got.value for got in sums[1:])
    est = exact_age(pair, DROPPING)
    assert est.ci_half_width <= 1e-4 * est.value
    pmf = k_pmf(pair, K_MAX)
    for k, got in enumerate(pmf.pmf):
        exact = float(survival[k] - survival[k + 1])
        assert abs(got.value - exact) <= got.half_width, (k + 1, got, exact)
    assert abs(pmf.tail_mass.value - float(survival[K_MAX])) <= (
        pmf.tail_mass.half_width)


def assert_rescales(pair, scaled, c):
    """``scaled``, ``pair`` with every time scaled by c, takes the same
    dropping record, whose sums hold ``pair``'s rescaled (E[K] and E[K^2]
    scale-free, the crossing sum and the middle term times c) within their
    half-widths, and whose Pr(K = k) and Pr(K > K_MAX) are ``pair``'s to
    4 eps, their half-widths to 16 eps."""
    record, rescaled = pair.cycles(DROPPING), scaled.cycles(DROPPING)
    assert rescaled.name == record.name
    for i, (got, was, f) in enumerate(zip(rescaled.sums(), record.sums(),
                                          (1.0, 1.0, c, c))):
        assert abs(got.value - f * was.value) <= got.half_width, (i, got, was)
    pmfs = [np.column_stack([np.append(probs.value, tail.value),
                             np.append(probs.half_width, tail.half_width)])
            for probs, tail in (rescaled.pmf(K_MAX), record.pmf(K_MAX))]
    assert np.all(np.abs(pmfs[0] - pmfs[1]) <= (4.0 * EPS, 16.0 * EPS))


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_every_service_kink_lies_on_the_bracketing_lattice(s, c):
    # The bracketing solve puts every kink of both laws on its lattice at
    # every time scale (R gaps have none, so here the service's: U(0.5,
    # 2)'s two ends, the D jump and the SE shift), keeping each tie rule:
    # a D service's jump an ulp off its point would read Pr(S > x) = 1
    # there.  So the record at R(c) gaps is the one at R(1) rescaled, and
    # at c = 1 its sums and pmf hold the reference's midpoints.
    y = Rayleigh(1.0)
    pair = RecordPair(y, s, "bracketing")
    assert_rescales(pair, RecordPair(Rayleigh(c), RESCALED[s.kind](s, c),
                                     "bracketing"), c)
    record = pair.cycles(DROPPING)
    probs, tail = record.pmf(K_MAX)
    want, want_tail = lattice_reference.pmf(y, s, K_MAX)
    for i, (got, ref) in enumerate(zip(
            [*record.sums(), *zip(*probs), tail],
            [*lattice_reference.sums(y, s).record(), *zip(*want), want_tail])):
        assert abs(got[0] - ref[0]) <= got[1], (i, got, ref)


# SE(0.25, 0.5) gaps put a step of E[Y]/64 = 0.07 past most kinks: there
# no step in range puts every kink on every level.
STEP_GAPS = [Uniform(0.5, 1.5), Uniform(0.0, 2.0),
             ShiftedExponential(1.0, 0.5), ShiftedExponential(2.0, 0.1),
             ShiftedExponential(0.25, 0.5), Rayleigh(1.0)]
STEP_SERVICES = [Uniform(0.5, 1.0), Uniform(0.0, 2.0), Deterministic(0.7),
                 Deterministic(2.0), Deterministic(1.0),
                 ShiftedExponential(1.0, 0.1), ShiftedExponential(2.0, 0.5),
                 Rayleigh(1.0)]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", STEP_SERVICES, ids=lambda d: d.describe())
@pytest.mark.parametrize("y", STEP_GAPS, ids=lambda d: d.describe())
def test_every_kink_lies_on_every_level(y, s, c):
    # Where a step in range puts every kink of both laws on every level,
    # each finite end of either law's support lies on the same point of
    # every level at every time scale, so each level's error is the same
    # series in h^2 at every scale.  Every pair here takes the lattice
    # record, as the path table names, and at scale c that record is the
    # one at scale 1 rescaled, levels or bracketing solve alike.  The
    # realigned pairs take their levels at every scale.
    pair = Pair(y, s)
    scaled = Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    assert scaled.cycles(DROPPING).name == "lattice"
    assert_rescales(pair, scaled, c)
    if (y, s) in REALIGNED:
        records = scaled.records(DROPPING)
        assert records["lattice"].sums() != records["bracketing"].sums()


def test_the_deep_step_search_puts_every_kink_on_the_levels():
    # About 13000 candidate steps for four kinks, of which 0.0003 and
    # 0.0021 lie on a level only from step 1/80000 down, against E[Y]/64 =
    # 1.875e-5: the record finds one, so it takes its levels, whose age
    # half-width is 1.6e-8 of the age (3.2e-8 where only the service's
    # kinks lie on every level, 3.6e-3 on the bracketing solve), and its
    # age holds the reference's midpoint.
    y, s = Uniform(0.0003, 0.0021), Uniform(0.5, 1.0)
    est = exact_age(Pair(y, s), DROPPING)
    assert est.method == "lattice"
    assert est.ci_half_width <= 2e-8 * est.value
    assert abs(est.value - lattice_reference.sums(y, s).age.value) <= (
        est.ci_half_width)


def test_levels_that_agree_to_roundoff_are_taken_as_they_are():
    # U(0.5, 1.5) gaps against a U(0.5, 1) service: K <= 2, so E[K] =
    # 1 + Pr(S > Y) = 5/4 and the crossing sum E[Y Pr(S > Y)] = 1/6, and
    # the age is 13/24 + (1/6)/(5/4) + 3/4 = 1.425.  Every kink lies on
    # every level, where E[K]'s and E[K^2]'s levels agree to roundoff: they
    # take the finest value with the roundoff half-width, and the age holds
    # the closed form and the reference's midpoint, its half-width at most
    # 1e-4 of it.
    y, s = Uniform(0.5, 1.5), Uniform(0.5, 1.0)
    record = Pair(y, s).cycles(DROPPING)
    k_mean = record.sums()[0]
    assert record.name == "lattice"
    assert abs(k_mean.value - 1.25) <= k_mean.half_width <= 1e-10  # 1.3e-11
    est = exact_age(Pair(y, s), DROPPING)
    assert est.method == "lattice"
    assert abs(est.value - 1.425) <= est.ci_half_width <= 1e-4 * est.value
    finer = lattice_reference.sums(y, s).age
    assert abs(est.value - finer.value) <= est.ci_half_width


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_a_jump_on_the_bracketing_lattice_gives_the_exact_pmf(c):
    # SE(1, 0.5) gaps against D(1): the first gap outlasts the service with
    # chance e^(-1/2), and two gaps always do, so Pr(K = 1) = e^(-1/2),
    # Pr(K = 2) = 1 - e^(-1/2) and Pr(K > 2) = 0.  The shift and the jump
    # lie on the bracketing lattice, where both ends read every cell alike:
    # each half-width is the kernel's roundoff alone.
    pmf = k_pmf(Pair(ShiftedExponential(1.0 / c, 0.5 * c),
                     Deterministic(c)), K_MAX)
    want = [math.exp(-0.5), -math.expm1(-0.5)] + [0.0] * (K_MAX - 2)
    for k, (got, exact) in enumerate(zip([*pmf.pmf, pmf.tail_mass],
                                         want + [0.0]), start=1):
        assert abs(got.value - exact) <= got.half_width <= 1e-12, (k, got)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_a_jump_on_the_bracketing_lattice_gives_the_first_pmf_entry(c):
    # Pr(K = 1) = Pr(Y > 0.7) = e^(-0.245) for R(1) gaps against D(0.7):
    # with the jump on the lattice both ends read the same cells, so only
    # roundoff is left in its half-width.
    first = k_pmf(Pair(Rayleigh(c), Deterministic(0.7 * c)), K_MAX).pmf[0]
    assert abs(first.value - math.exp(-0.245)) <= first.half_width <= 1e-12


# SE(r, c) gaps against an SE(mu, d) service, d < c: its kink d lies below
# every partial sum of one gap or more, so only the gaps' kink c need lie
# on the levels.  The first is a benchmark pair, the others two rows of
# the shifted-exponential study.
UNREACHED_SHIFTS = [(0.25, 0.5, 1.0, 0.1), (0.1, 0.5, 1.0, 0.1),
                    (1.0, 0.75, 1.0, 0.1)]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("r,shift,mu,d", UNREACHED_SHIFTS, ids=[
    f"SE({r:g},{a:g})/SE({m:g},{d:g})" for r, a, m, d in UNREACHED_SHIFTS])
def test_a_kink_no_partial_sum_reaches_leaves_the_levels_aligned(
        r, shift, mu, d, c):
    # T_k = k shift + Gamma(k, r) >= shift > d for k >= 1, where
    # Pr(S > t) = e^(-mu (t - d)), so Pr(K > k) = e^(mu d) q^k with q =
    # e^(-mu shift) r/(r + mu), and E[T_k e^(-mu T_k)] = k (shift + 1/(r +
    # mu)) q^k gives the crossing sum e^(mu d) (shift + 1/(r + mu)) q/(1 -
    # q)^2.  Each must lie within its half-width, the age's at most 1e-5
    # of it (at most 6.1e-6 here, where a step that leaves the gaps' kink
    # off the levels gave 3.6e-5 to 1.3e-3).
    pair = Pair(ShiftedExponential(r / c, shift * c),
                ShiftedExponential(mu / c, d * c))
    with mpmath.workdps(30):
        r, shift, mu, d = map(mpmath.mpf, (r, shift, mu, d))
        q, lift = mpmath.exp(-mu * shift) * r / (r + mu), mpmath.exp(mu * d)
        survival = [1] + [lift * q ** k for k in range(1, K_MAX + 1)]
        k_mean = 1 + lift * q / (1 - q)
        k_second = 1 + lift * q * (3 - q) / (1 - q) ** 2
        crossing = lift * (shift + 1 / (r + mu)) * q / (1 - q) ** 2
        mean = shift + 1 / r
        age = (mean ** 2 + 1 / r ** 2) / (2 * mean) + crossing / k_mean + (
            d + 1 / mu)
    sums = pair.cycles(DROPPING).sums()
    for got, want in zip(sums, (k_mean, k_second, c * crossing)):
        assert abs(got.value - float(want)) <= got.half_width, (got, want)
    est = exact_age(pair, DROPPING)
    assert abs(est.value - float(c * age)) <= est.ci_half_width
    assert est.ci_half_width <= 1e-5 * est.value
    pmf = k_pmf(pair, K_MAX)
    for k, got in enumerate(pmf.pmf):
        want = float(survival[k] - survival[k + 1])
        assert abs(got.value - want) <= got.half_width, (k + 1, got, want)


# U(0, b) gaps against a service far shorter than a mean gap, U(0, d) or
# D(d): the lattice's levels step from the service's top, not from E[Y].
SHORT_SERVICES = [(100.0, Uniform(0.0, 1.0)), (100.0, Deterministic(1.0)),
                  (1e4, Uniform(0.0, 0.3)), (1e4, Deterministic(0.3))]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("b,s", SHORT_SERVICES, ids=[
    f"U(0,{b:g})/{s.kind}" for b, s in SHORT_SERVICES])
def test_a_short_service_takes_the_levels(b, s, c):
    # Every service ends before a gap can, T_k's density below b is
    # t^(k-1)/((k-1)! b^k), so with m_k = E[S^k], Pr(K > k) = Pr(T_k < S) =
    # m_k/(b^k k!) and the crossing sum is sum_{k>=1} E[T_k; T_k < S] =
    # sum_k k m_(k+1)/(b^k (k+1)!); the age is b/3 plus the crossing sum
    # over E[K] plus E[S].  Each must lie within its half-width, the
    # age's at most 1e-6 of it (8.5e-14 off, half-width 2.4e-8 of it, on
    # U(0, 100)/U(0, 1), against 3.5e-5 on the bracketing solve).
    d = s.support()[1]
    pair = Pair(Uniform(0.0, b * c), RESCALED[s.kind](s, c))
    with mpmath.workdps(30):
        b, d = mpmath.mpf(b), mpmath.mpf(d)
        moment = ((lambda k: d ** k / (k + 1)) if s.kind == "uniform"
                  else (lambda k: d ** k))
        survival = [moment(k) / (b ** k * mpmath.factorial(k))
                    for k in range(K_MAX + 1)]
        k_mean = mpmath.nsum(lambda k: moment(k) / (
            b ** k * mpmath.factorial(k)), [0, mpmath.inf])
        k_second = mpmath.nsum(lambda k: (2 * k + 1) * moment(k) / (
            b ** k * mpmath.factorial(k)), [0, mpmath.inf])
        crossing = mpmath.nsum(lambda k: k * moment(k + 1) / (
            b ** k * mpmath.factorial(k + 1)), [1, mpmath.inf])
        age = b / 3 + crossing / k_mean + moment(1)
    record = pair.cycles(DROPPING)
    assert record.name == "lattice"
    for got, want in zip(record.sums(), (k_mean, k_second, c * crossing)):
        assert abs(got.value - float(want)) <= got.half_width, (got, want)
    est = exact_age(pair, DROPPING)
    assert abs(est.value - float(c * age)) <= est.ci_half_width
    assert est.ci_half_width <= 1e-6 * est.value
    pmf = k_pmf(pair, K_MAX)
    for k, got in enumerate(pmf.pmf):
        want = float(survival[k] - survival[k + 1])
        assert abs(got.value - want) <= got.half_width, (k + 1, got, want)
    assert abs(pmf.tail_mass.value - float(survival[K_MAX])) <= (
        pmf.tail_mass.half_width)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("laws", [
    lambda c: (Uniform(0.0, 2.0 * c), Deterministic(1e-9 * c)),
    lambda c: (Deterministic(0.7 * c), ShiftedExponential(1e6 / c, 1e-9 * c)),
    lambda c: (Uniform(0.5 * c, 1.5 * c),
               ShiftedExponential(1e6 / c, 1e-9 * c)),
], ids=["U/D", "D/SE", "U/SE"])
def test_a_kink_by_the_origin_leaves_point_zero_exact(laws, c):
    # Each service kink here rounds to lattice point 0, which must stay 0:
    # the first partial sum A_1 = 0 is exact, and the crossing sum's first
    # term reads that point.  The second partial sum almost never falls
    # before the service ends (chance 5e-10 for U/D, 0 for the rest), so
    # the age is the head plus E[S] to far below roundoff.  Corollary 1 is
    # an upper bound on it.
    y, s = laws(c)
    pair = Pair(y, s)
    est = exact_age(pair, DROPPING)
    assert 0.0 <= est.ci_half_width
    assert abs(est.value - (pair.head + s.mean())) <= est.ci_half_width
    assert corollary_one(pair, DROPPING).value >= (
        est.value - est.ci_half_width)


# Gaps that always outlast the service, so K = 1 surely and the crossing
# sum and the middle term are 0: a gap nearly fixed, a gap wide of the
# service's jump, and a service of its own width.
NEVER_REACHED = {
    "U/D-narrow": lambda c: (Uniform(c, c * (1.0 + 1e-9)),
                             Deterministic(0.7 * c)),
    "U/D": lambda c: (Uniform(c, 2.0 * c), Deterministic(0.7 * c)),
    "U/U": lambda c: (Uniform(c, 1.5 * c), Uniform(0.1 * c, 0.9 * c)),
}


@pytest.mark.parametrize("c", [10.0 ** e for e in range(-9, 10)],
                         ids=lambda c: f"{c:g}")
@pytest.mark.parametrize("laws", NEVER_REACHED.values(),
                         ids=NEVER_REACHED.keys())
def test_a_sum_of_zero_keeps_its_roundoff(laws, c):
    # The transform errs relative to its inputs, not to its sum: each
    # record's crossing sum and middle term land near 0, not on it, and
    # must carry that roundoff, as must the age, whose exact value is the
    # head E[Y^2]/(2 E[Y]) plus E[S], here in rationals.
    y, s = laws(c)
    pair = Pair(y, s)
    for name, record in pair.records(DROPPING).items():
        for got, want in zip(record.sums(), (1.0, 1.0, 0.0, 0.0)):
            assert abs(got.value - want) <= got.half_width, (name, got, want)
    (a, b), (lo, hi) = (map(Fraction, law.support()) for law in (y, s))
    age = (a * a + a * b + b * b) / (3 * (a + b)) + (lo + hi) / 2
    est = exact_age(pair, DROPPING)
    assert abs(Fraction(est.value) - age) <= Fraction(est.ci_half_width)


def test_the_up_end_reads_the_left_limit_at_the_jump():
    # The bracketing solve on U(0, 2)/D(1): the up end reads Pr(S >= 1) = 1
    # at the jump, so the proven bracket holds E[K] = e^(1/2) and each
    # Pr(K = k) = r^(k-1)/(k-1)! - r^k/k!, r = 1/2.  Its half-widths keep
    # the first-order error of a lattice twice as coarse as the
    # reference's, whose up end reads the jump the same way: E[K]'s and
    # each Pr(K = k)'s at most 2.1 times the reference's (2.006 here, and
    # 2.2 to 8 times where both ends read Pr(S > x), as they did before).
    y, s = Uniform(0.0, 2.0), Deterministic(1.0)
    pair = RecordPair(y, s, "bracketing")
    k_mean, pmf = pair.cycles(DROPPING).sums()[0], k_pmf(pair, K_MAX)
    assert abs(k_mean.value - math.exp(0.5)) <= k_mean.half_width
    survival = [0.5 ** k / math.factorial(k) for k in range(K_MAX + 1)]
    for k, got in enumerate(pmf.pmf, start=1):
        want = survival[k - 1] - survival[k]
        assert abs(got.value - want) <= got.half_width, (k, got, want)
    assert k_mean.half_width <= (
        2.1 * lattice_reference.sums(y, s).k_mean.half_width)
    assert_pmf_covers(Interval(*map(np.array, zip(*pmf.pmf))), pmf.tail_mass,
                      *lattice_reference.pmf(y, s, K_MAX), widest=2.1,
                      roundoff=2e-13)


UNBOUNDED = [d for d in ALL_KINDS if d.support()[1] == np.inf]


# Services whose rare, long phase holds most of E[S] or of E[S^2] with
# under 1e-13 of the mass: E[S] = 101 and E[S^2] = 2e18, then
# E[S] = 1 + 1e-10 and E[S^2] = 4.  The first has Pr(S > E[S]) = 1e-14, so
# its top is found by halving down from E[S].  Neither reaches the lattice
# through ``Pair``.
RARE_PHASES = [Hyperexponential((0.99999999999999, 1e-14), (1.0, 1e-16)),
               Hyperexponential((1.0, 1e-20), (1.0, 1e-10))]
RARE_IDS = ["mean-in-tail", "second-in-tail"]


@pytest.mark.parametrize("s", [
    *(Erlang(n, 1.0) for n in (1, 2, 3, 10, 100, 1000, 10_000)),
    *(ShiftedExponential(1.0, 10.0**j) for j in range(-12, 13, 2)),
    Rayleigh(1.0)], ids=lambda d: d.describe())
def test_the_lattice_top_keeps_both_moments(s):
    # The lattice ends where the service keeps 1e-13 of its mass; for the
    # unbounded services that still reach it, the light tails beyond hold
    # a share of E[S] and of E[S^2] far below the lattice's own error.
    # With Poisson arrivals the one-phase record gives E[K], E[K^2] and the
    # crossing sum in closed form from E[S] and E[S^2]: the bracketing
    # record on the same pair, at one arrival per mean service, must hold
    # each, and the middle term.
    y = Exponential(1.0 / s.mean())
    exact = Pair(y, s).cycles(DROPPING)
    assert exact.name == "one_phase"
    bracketing = RecordPair(y, s, "bracketing").cycles(DROPPING)
    for i, (got, want) in enumerate(zip(bracketing.sums(), exact.sums())):
        assert abs(got.value - want.value) <= got.half_width, (i, got, want)


def scaled_services(unbounded, rare):
    """Each unbounded service at the scales ``unbounded``, then each
    rare-phase service at the scales ``rare``."""
    return ([pytest.param(d, c, id=f"{d.kind}-{c}")
             for d in UNBOUNDED for c in unbounded]
            + [pytest.param(d, c, id=f"{name}-{c}")
               for d, name in zip(RARE_PHASES, RARE_IDS) for c in rare])


@pytest.mark.parametrize("s,c", scaled_services(
    (1e-300, 1e-6, 1.0, 1e6, 1e300), (1e-6, 1.0, 1e6)))
def test_truncation_point_is_the_first_passing_64th_of_an_octave(s, c):
    # The lattice's last point is E[S] 2^(j/64) for the least integer j at
    # which Pr(S > x) <= 1e-13, at every time scale, down to the octaves
    # that meet the float range's ends at 1e-300 and 1e300, which no pair
    # reaches: check_pair refuses gaps whose E[Y^2] leaves the floats.
    scaled = RESCALED[s.kind](s, c)
    top = analytic._truncation_point(scaled)
    j = analytic._TOP_STEPS * math.log2(top / scaled.mean())
    assert abs(j - round(j)) <= 1e-6, j
    assert scaled.ccdf(top) <= analytic._SERVICE_TAIL
    lower = top * 2.0 ** (-1.0 / analytic._TOP_STEPS)
    assert scaled.ccdf(lower) > analytic._SERVICE_TAIL


@pytest.mark.parametrize("s,c", scaled_services(
    (1e-300, 1e-6, 1e6, 1e300), (1e-6, 1e6)))
def test_truncation_point_rescales_with_time(s, c):
    scaled = RESCALED[s.kind](s, c)
    assert analytic._truncation_point(scaled) == pytest.approx(
        c * analytic._truncation_point(s), rel=1e-12)


# 1e-150 and 1e150 are the widest scales at which R gaps keep a finite,
# nonzero E[Y^2], as a pair needs.
@pytest.mark.parametrize("c", [1e-150, 1e-6, 1e6, 1e150])
@pytest.mark.parametrize("s", [pytest.param(d, id=d.kind) for d in UNBOUNDED]
                         + [pytest.param(d, id=name)
                            for d, name in zip(RARE_PHASES, RARE_IDS)])
def test_the_bracketing_record_rescales_with_its_top(s, c):
    # The lattice's last point is found in units of E[S], by halving down
    # from it where Pr(S > E[S]) already passes, so it rescales with time,
    # and with it the whole bracketing record: at R(c) gaps against the
    # service at scale c it is the record at scale 1 rescaled.
    assert_rescales(RecordPair(Rayleigh(1.0), s, "bracketing"),
                    RecordPair(Rayleigh(c), RESCALED[s.kind](s, c),
                               "bracketing"), c)


@pytest.mark.parametrize("c", [1e-150, 1e-6, 1.0, 1e6, 1e150])
@pytest.mark.parametrize("s", UNBOUNDED, ids=lambda d: d.kind)
def test_the_lattice_top_leaves_no_tail_the_reference_sees(s, c):
    # The reference runs its own lattice out to 1e-16 of the service's
    # mass, 1000 times less than the record keeps; the record's bound on
    # the tail it cuts must cover the difference at every time scale, in
    # each sum and each Pr(K = k), each against the reference solved at
    # that scale.
    y, s = Rayleigh(c), RESCALED[s.kind](s, c)
    record = RecordPair(y, s, "bracketing").cycles(DROPPING)
    probs, tail = record.pmf(K_MAX)
    want, want_tail = lattice_reference.pmf(y, s, K_MAX)
    for i, (got, ref) in enumerate(zip(
            [*record.sums(), *zip(*probs), tail],
            [*lattice_reference.sums(y, s).record(), *zip(*want), want_tail])):
        assert abs(got[0] - ref[0]) <= got[1], (i, got, ref)


# At c = 1e152 and 1e153 the rare rate's square underflows.
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6, 1e152, 1e153])
@pytest.mark.parametrize("s", RARE_PHASES, ids=RARE_IDS)
def test_a_moment_beyond_the_lattice_is_not_reached(s, c):
    # The 1e-13 mass cut would drop the rare phase, and with it most of a
    # moment the age integrates.  Through ``Pair`` no hyperexponential
    # service reaches the lattice: the phase mix gives the ages and the pmf
    # at every time scale.
    scaled = RESCALED[s.kind](s, c)
    y = Uniform(0.0, 2.0 * c)
    pair, want = Pair(y, scaled), mix_reference(y, scaled)
    poisson = Pair(Exponential(1.0 / c), scaled)
    assert pair.cycles(DROPPING).name == "service_blocks"
    assert poisson.cycles(DROPPING).name in ("one_phase", "service_blocks")
    est = exact_age(pair, DROPPING)
    assert_covers(est.value, est.ci_half_width, want.dropping)
    report = corollary_one(pair, DROPPING)
    assert_covers(report.value, report.half_width, want.corollary1)
    pmf = k_pmf(poisson, K_MAX)
    for got, ref in zip(pmf.pmf, mix_pmf(1.0 / c, scaled, K_MAX)):
        assert abs(got.value - ref) <= 4.0 * EPS, (got.value, ref)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", [Hyperexponential((0.5, 0.5), (0.5, 2.0)),
                               Hyperexponential((0.99, 0.01), (5.0, 0.05))],
                         ids=["even", "skewed"])
@pytest.mark.parametrize("y", [
    Uniform(0.0, 2.0), Rayleigh(1.0), ShiftedExponential(2.0, 0.5),
    Erlang(2, 2.0), Deterministic(0.7)],
    ids=lambda d: d.kind)
def test_lattice_brackets_the_phase_mix(y, s, c):
    # Hyperexponential service takes the phase mix through ``Pair``; the
    # lattice still runs on it directly, and each of its intervals must
    # meet the mix's.  D arrivals sum in closed form up to the service's
    # top point, and the tail beyond it, up to 3e-9 of E[S^2] for the
    # skewed law, is in their half-widths.  Their pmf and the mix's are
    # then both closed forms whose half-widths carry no roundoff, so
    # there each Pr(K = k) is allowed 4 eps absolute of it besides.
    def intervals(pair):
        est, report = exact_age(pair, DROPPING), corollary_one(pair, DROPPING)
        return [(est.value, est.ci_half_width),
                (report.value, report.half_width), *k_pmf(pair, K_MAX).pmf]

    roundoff = 4.0 * EPS if isinstance(y, Deterministic) else 0.0
    record = "d_arrivals" if isinstance(y, Deterministic) else "lattice"
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    for i, ((value, hw), (mix, mix_hw)) in enumerate(zip(
            intervals(RecordPair(y, s, record)), intervals(Pair(y, s)))):
        slack = roundoff if i >= 2 else 0.0
        assert abs(value - mix) <= hw + mix_hw + slack, (value, hw, mix, mix_hw)


def test_deep_cycle_guard():
    # E[K] = 1 + lam d = 15001: the lattice coarsens to 16 points per mean
    # gap to stay within its point budget and still lands on the age.
    lam, d = 150.0, 100.0
    age = 1.0 / lam + lam * d * d / (2.0 * (1.0 + lam * d)) + d
    tracemalloc.start()
    try:
        est = exact_age(RecordPair(Exponential(lam), Deterministic(d),
                                   "bracketing"), DROPPING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert 0.0 < est.ci_half_width < 0.1 * age
    assert abs(est.value - age) <= est.ci_half_width


def test_a_cycle_that_fits_at_a_sixteenth_of_a_gap_solves(monkeypatch):
    # The SE(0.0025, 0.04) service's shift shrinks the finest level's step
    # to E[Y]/100, so four times it, E[Y]/25, still leaves its 1.2e4 top
    # past the point budget; at E[Y]/16 it fits.  The bracketing step
    # doubles on until it fits: its transforms read both ends' lattices of
    # n points, 2^17 <= n < 2^18, so the step before the last doubling would
    # not have fit the 2^18 points.  The levels coarsen until they fit too.
    # Both ages hold the M/G/1/1 closed form.
    y, s = Exponential(1.0), ShiftedExponential(0.0025, 0.04)
    mg11 = ((2.0 + 2.0 * s.mean() + s.second_moment())
            / (2.0 * (1.0 + s.mean())) + s.mean())
    levels = exact_age(RecordPair(y, s, "lattice"), DROPPING)
    assert abs(levels.value - mg11) <= levels.ci_half_width
    calls = fft_calls(monkeypatch)
    est = exact_age(RecordPair(y, s, "bracketing"), DROPPING)
    assert calls and all(shape[0] == 2 and 2**17 <= shape[-1] < 2**18
                         for shape, _ in calls), calls
    assert 0.0 < est.ci_half_width < 0.1 * mg11
    assert abs(est.value - mg11) <= est.ci_half_width


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", [
    ShiftedExponential(0.0025, 0.04), Uniform(0.0, 1e4), Deterministic(9000.0),
], ids=["SE", "U", "D"])
def test_a_deep_cycle_keeps_its_levels(s, c):
    # About 400 to 9000 arrivals a cycle: at 64 points per mean gap the
    # levels would pass the point budget, so they coarsen by octaves until
    # they fit.  The extrapolated age holds the M/G/1/1 closed form to
    # within 1e-6 of itself.
    y, s = Exponential(1.0 / c), RESCALED[s.kind](s, c)
    mg11 = c + s.mean() + s.second_moment() / (2.0 * (c + s.mean()))
    assert "lattice" in Pair(y, s).records(DROPPING)
    est = exact_age(RecordPair(y, s, "lattice"), DROPPING)
    assert abs(est.value - mg11) <= est.ci_half_width <= 1e-6 * est.value


def test_deep_cycle_pmf_stays_in_the_memory_budget():
    tracemalloc.start()
    try:
        k_pmf(Pair(Exponential(150.0), Deterministic(100.0)), K_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_a_lattice_record_keeps_no_spectra():
    # The record keeps its gap cells and the service ccdf on its 40017
    # points, 1.2 MiB; a spectrum of either transform would add 2.5 MiB.
    tracemalloc.start()
    try:
        pair = Pair(Uniform(0.0, 0.2), Rayleigh(2.0))
        exact_age(pair, DROPPING)
        k_pmf(pair, K_MAX)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20


@functools.cache
def long_pmf(y, s):
    """The (value, half-width) rows of ``k_pmf`` up to k = 400."""
    return np.array(k_pmf(Pair(y, s), 400).pmf)


@pytest.mark.parametrize("y,s", [
    (Uniform(0.0, 0.2), Rayleigh(2.0)),
    (Uniform(0.0, 0.02), Deterministic(1.0)),
    (Uniform(0.0, 2.0), Erlang(2, 2.0)),
    (ShiftedExponential(0.25, 0.5), ShiftedExponential(1.0, 0.1)),
], ids=["deep-U/R", "deep-U/D", "U/Erlang", "SE/SE"])
@pytest.mark.parametrize("k_max", [1, 2, 10])
def test_a_short_pmf_is_the_prefix_of_a_long_one(y, s, k_max):
    # A short call reads a shorter lattice prefix on a shorter transform;
    # both must give the same probabilities and half-widths, but for the
    # transform's roundoff that the long call's half-widths carry where its
    # powers can leave the lattice (a few 1e-12 on the deep pairs).
    long = long_pmf(y, s)[:k_max]
    short = np.array(k_pmf(Pair(y, s), k_max).pmf)
    assert short[:, 0] == pytest.approx(long[:, 0], rel=0, abs=1e-12)
    assert np.all(short[:, 1] <= long[:, 1] + 1e-12)
    assert np.all(long[:, 1] <= short[:, 1] + 1e-10)


@pytest.mark.parametrize("y,s", [
    (ShiftedExponential(1.0, 50.0), Uniform(0.0, 1.0)),
    (Uniform(0.5, 0.6), Uniform(0.0, 0.1)),
    (Uniform(100.0, 200.0), Uniform(0.0, 1.0)),
], ids=["SE/U", "U/U-short", "U/U-wide"])
@pytest.mark.parametrize("k_max", [1, 2, 5, K_MAX])
def test_gaps_beyond_the_lattice_leave_one_arrival_per_cycle(y, s, k_max):
    # Every gap outlasts every service: no rounded-up gap falls on the
    # lattice, and K = 1 exactly.
    pmf = k_pmf(Pair(y, s), k_max)
    assert ([tuple(p) for p in pmf.pmf]
            == [(1.0, 0.0)] + [(0.0, 0.0)] * (k_max - 1))
    assert tuple(pmf.tail_mass) == (0.0, 0.0)


@pytest.mark.parametrize("y,s", [
    (ShiftedExponential(1.0, 50.0), Rayleigh(1.0)),
    (ShiftedExponential(1.0, 50.0), Uniform(0.0, 1.0)),
    (Uniform(5.0, 6.0), Rayleigh(0.5)),
], ids=["SE/R", "SE/U", "U/R"])
def test_a_one_arrival_cycle_keeps_a_nonnegative_half_width(y, s):
    # K = 1 almost surely, so E[K(K-1)] = 0, and roundoff can put a
    # lattice end's E[K^2] - E[K] just below 0: the crossing's widening
    # must not narrow its interval below nothing.
    pair = Pair(y, s)
    assert pair.cycles(DROPPING).sums()[2].half_width >= 0.0
    assert exact_age(pair, DROPPING).ci_half_width >= 0.0


def test_pmf_transform_is_sized_by_the_powers_it_reads(monkeypatch):
    # The deep pair has 40018 lattice points, but Pr(K > k), k <= 10, reads
    # only m = 10 * 512 + 1 of them: no power wraps, so the transform is
    # untilted on the smallest even length at least m, 6144, in two FFTs
    # (the weights, then both ends' gap spectra), and only that prefix of
    # the lattice is built.  The service ccdf's largest call reads the m
    # points; the gap ccdf reads the prefix that holds the gaps' support
    # and the lattice's last two points.
    y, s = Uniform(0.0, 0.2), Rayleigh(2.0)
    m = 10 * 512 + 1
    calls, points = fft_calls(monkeypatch), {Uniform: [], Rayleigh: []}

    def counted(self, x, _original=Distribution.ccdf):
        points[type(self)].append(np.size(x))
        return _original(self, x)
    monkeypatch.setattr(Distribution, "ccdf", counted)
    k_pmf(Pair(y, s), 10)
    assert len(calls) == 2 and max(n for _, n in calls) <= 6144
    assert m <= max(points[Rayleigh]) < 1.25 * m
    assert sum(points[Uniform]) < 0.25 * m


def direct_power_sums(f, v, k_max):
    """sum_l f^{*k}_l v_l, k = 1..k_max, by convolution in long doubles."""
    f, v = np.trim_zeros(f, "b").astype(np.longdouble), v.astype(np.longdouble)
    power, out = np.ones(1, dtype=np.longdouble), []
    for _ in range(k_max):
        power = np.convolve(power, f)[:v.size]
        out.append(float(power @ v[:power.size]))
    return np.array(out)


@pytest.mark.parametrize("cells,k_max", [
    (8, 300), (3, 600), (17, 300), (64, 40), (1, 1), (1, 2), (1, 4)],
    ids=lambda v: str(v))
def test_untilted_powers_match_long_double_convolution(cells, k_max,
                                                       monkeypatch):
    # U(0, 1) gaps wholly on a lattice of ``cells`` steps per unit: each
    # end's mass is exactly 1, so no power decays and the roundoff grows
    # with k.  The m = k_max cells + 1 points hold the k_max-th power, so
    # none wraps: the transform is untilted, on an even length (4 and 6 at
    # m = 3 and 5, where the smallest FFT length alone would be odd), and
    # the roundoff it reports must hold every sum of both ends.
    h, m = 1.0 / cells, k_max * cells + 1
    gaps = analytic._cells(Uniform(0.0, 1.0).ccdf(h * np.arange(m + 1)))
    x = h * np.arange(m)
    weights = np.stack((Rayleigh(0.4 * k_max).ccdf(x) - 1.0,
                        np.random.default_rng(cells).uniform(-1.0, 1.0, m)))
    calls = fft_calls(monkeypatch)
    powers, noise = analytic._survival(gaps, weights, k_max)
    size = 2 * analytic._fft_size(-(-m // 2))
    assert [n for _, n in calls] == [size, size] and m <= size < 4 * m
    assert noise == pytest.approx(
        (k_max + 1) * math.log2(size) * EPS * np.abs(weights).max())
    for end in range(2):
        for row, v in enumerate(weights):
            want = direct_power_sums(gaps[end], v, k_max)
            assert np.all(np.abs(powers[end, row, 1:] - want) <= noise)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("k_max", [1, 10, 40])
@pytest.mark.parametrize("y,s", [
    (Uniform(0.0, 0.2), Rayleigh(2.0)),
    (Uniform(0.0, 0.02), Deterministic(1.0)),
    (Uniform(0.0, 2.0), Rayleigh(1.0)),
    (Uniform(0.0, 1.0), Uniform(0.0, 3.0)),
    (Rayleigh(1.0), Uniform(0.0, 2.0)),
    (ShiftedExponential(1.0, 0.5), Deterministic(2.0)),
    (Rayleigh(0.01), Deterministic(1.0)),
    (Uniform(0.0, 2.0), Deterministic(1.0)),
], ids=["deep-U/R", "deep-U/D", "U/R", "U/U", "R/U", "SE/D", "deep-R/D",
        "U/D-on-lattice"])
def test_prefix_pmf_is_the_full_lattice(y, s, k_max, c):
    # The power sums build only the lattice prefix that they read (all
    # of it where they can wrap, and every cell of gaps with no upper end):
    # each Pr(K = k) must hold the reference's, which sums every point,
    # at every time scale.  U/D's jump lies on the lattice, where the up
    # end reads Pr(S >= 1) = 1.
    want = lattice_reference.pmf(y, s, k_max)
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    got = k_pmf(Pair(y, s), k_max)
    assert_pmf_covers(Interval(*map(np.array, zip(*got.pmf))), got.tail_mass,
                      *want)


@pytest.mark.parametrize("y,s", [PAIRS[-1], PAIRS[0]],
                         ids=["full-deep-U/R", "folded-SE/SE"])
def test_each_op_builds_only_the_transform_it_reads(y, s, monkeypatch):
    # Each transform weighs all its weight vectors in one FFT and takes
    # both ends' gap spectra in another: the pmf transform G - 1 (or,
    # folded, kappa and the gap mass past the head), then the renewal
    # transforms of c and x c, one for each of the three levels.  The
    # sums and corollary 1 read the record's sums again, with no FFT.
    calls = fft_calls(monkeypatch)
    k_pmf(Pair(y, s), K_MAX)
    assert len(calls) == 2
    pair = Pair(y, s)
    exact_age(pair, DROPPING)
    assert len(calls) == 2 + 6
    pair.cycles(DROPPING).sums()
    corollary_one(pair, DROPPING)
    assert len(calls) == 2 + 6


@pytest.mark.parametrize("compute", [
    lambda pair: exact_age(pair, DROPPING),
    lambda pair: k_moments(pair),
    lambda pair: k_pmf(pair, K_MAX)], ids=["exact", "moments", "kpmf"])
def test_too_deep_cycle_raises(compute):
    # E[K] = 100001 needs 1.6e6 points even at 16 per mean gap.
    with pytest.raises(TruncationNotReached):
        compute(RecordPair(Exponential(1000.0), Deterministic(100.0),
                           "bracketing"))


@pytest.mark.parametrize("per_end", [False, True], ids=["shared", "per-end"])
def test_totals_are_the_long_double_sums(per_end):
    # Both weight layouts: rows shared by the ends, and one set per end as
    # the fold's pmf passes them.  Each lattice sum is a sum of n complex
    # products, so it keeps within (n + 2) eps of the sum of their sizes.
    rng = np.random.default_rng(5)
    n, ends, rows = 3000, 2, 3

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectrum = draw(ends, n)
    weights = draw(ends, rows, n) if per_end else draw(rows, n)
    got = analytic._totals(weights, spectrum)
    terms = np.broadcast_to(weights, (ends, rows, n)) * spectrum[:, None]
    want = terms.astype(np.clongdouble).sum(-1).real
    bound = (n + 2) * EPS * np.abs(terms).sum(-1)
    assert got.shape == (ends, rows)
    assert np.all(np.abs(got - want) <= bound), np.abs(got - want) / bound
