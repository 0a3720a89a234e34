"""The lattice renewal solve of ``aoi.analytic`` against the Monte Carlo
partial-sum walk of ``walk_oracle``, the finite D/G sums, and itself at a
finer lattice."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from aoi import analytic
from aoi.analytic import Interval, Pair, exact_age, k_pmf
from aoi.bounds import corollary_one
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.errors import TruncationNotReached
from aoi.sim import Z95, Discipline
from test_analytic import k_moments
from test_distributions import ALL_KINDS, RESCALED
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


class LatticePair(Pair):
    """A pair whose dropping record is always the lattice's: with
    exponential arrivals :meth:`Pair.cycles` takes the closed form, and
    these tests keep the lattice checked there."""

    def cycles(self, discipline):
        assert discipline is DROPPING
        return analytic._lattice_cycles(self.interarrival, self.service)


def lattice(y, s):
    """Every lattice result as (value, half-width) pairs, in one order.  An
    Erlang service leaves the lattice through :class:`Pair` for its block
    record; here the lattice itself is checked for it."""
    pair = (Pair if s.phases() is None else LatticePair)(y, s)
    est = exact_age(pair, DROPPING)
    k1, k2 = k_moments(pair)
    pmf = k_pmf(pair, K_MAX)
    return [(est.value, est.ci_half_width), k1, k2, *pmf.pmf, pmf.tail_mass]


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_lattice_agrees_with_walk(y, s):
    wm = dropping_walk_moments(y, s, REPLICATES, 2024)
    walk_pmf = _k_pmf_walk(y, s, K_MAX, REPLICATES, 2024)
    ratio = wm.ratio()
    head = y.second_moment() / (2.0 * y.mean())
    walk = ([ratio._replace(value=head + ratio.value + s.mean()),
             wm.k_mean, wm.k_second] + list(walk_pmf.pmf)
            + [walk_pmf.tail_mass])
    for i, ((value, hw), w) in enumerate(zip(lattice(y, s), walk)):
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
    # The library's sums stop at the service's top point, past which a
    # bounded service has no mass: its half-widths are 0.  Rayleigh's
    # terms past it must lie inside the half-widths, which stay under
    # 1e-13 relative.
    beyond = j >= int(analytic._truncation_point(s) / d) + 2
    left_out = [float((j * d * tails)[beyond].sum()) / k_mean,
                float(tails[beyond].sum()),
                float(((2 * j + 1) * tails)[beyond].sum())]
    hws = [hw for _, hw in got]
    if isinstance(s, Uniform):
        assert hws == [0.0] * len(want)
    else:
        assert all(0.0 < t <= hw for t, hw in zip(left_out, hws))
        assert all(hw <= 1e-13 * abs(v) for v, hw in got[:3])
        assert hws[3:] == [0.0] * (len(want) - 3)


@pytest.mark.parametrize("s,ccdf", [
    (Rayleigh(1.0), lambda x: mpmath.exp(-x * x / 2)),
    (ShiftedExponential(2.0, 0.1), lambda x: mpmath.exp(-2 * (x - 0.1))),
    (Erlang(2, 2.0), lambda x: mpmath.exp(-2 * x) * (1 + 2 * x)),
    (Hyperexponential((0.99, 0.01), (5.0, 0.05)),
     lambda x: 0.99 * mpmath.exp(-5 * x) + 0.01 * mpmath.exp(-0.05 * x))],
    ids=["rayleigh", "shifted_exponential", "erlang", "hyperexponential"])
def test_deterministic_gaps_bound_the_pmf_past_the_service_top(s, ccdf):
    # Pr(K > k) = Pr(S > k d) at D arrivals.  Past the lattice's last
    # point the sums read 0, and each half-width must hold the true value.
    d = 0.7
    n = int(analytic._truncation_point(s) / d) + 2
    pmf = k_pmf(LatticePair(Deterministic(d), s), 2 * n)
    with mpmath.workdps(40):
        tail = [ccdf(k * mpmath.mpf(d)) for k in range(2 * n + 1)]
    for k in range(n, 2 * n + 1):
        got = pmf.pmf[k - 1]
        assert abs(got.value - float(tail[k - 1] - tail[k])) <= got.half_width
    assert 0.0 < float(tail[2 * n]) <= pmf.tail_mass.half_width
    assert pmf.tail_mass.value == 0.0


def lattice_cells(pair):
    """The gap cells, rounded down and then up, the lattice points and the
    service ccdf on them, for ``pair``'s solves, rebuilt from their
    definition."""
    h = pair.interarrival.mean() / analytic._LATTICE_STEPS
    n = int(analytic._truncation_point(pair.service) / h) + 2
    x = h * np.arange(n)
    for b in pair.service.breakpoints():
        j = round(b / h)
        if j < n and abs(x[j] - b) <= analytic._SNAP * h:
            x[j] = b
    tail = pair.interarrival.ccdf(h * np.arange(n + 1))
    cell = tail[:-1] - tail[1:]
    return (cell, np.append(0.0, cell[:-1])), x, pair.service.ccdf(x)


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
    # Pr(K > k) = sum_j f^{*k}_j Pr(S > jh) on each end's lattice; the
    # record's Pr(K > k) spans the two ends.
    pair = Pair(y, s)
    cells, _, c = lattice_cells(pair)
    ends = []
    for f in cells:
        want, power = [], np.array([1.0])
        for _ in range(K_MAX):
            power = np.convolve(power, np.trim_zeros(f, "b"))[:c.size]
            want.append(float(power @ c[:power.size]))
        ends.append(want)
    for k, (down, up) in enumerate(zip(*ends), start=1):
        value, hw = pair.cycles(DROPPING).pmf(k)[1]
        assert (value + hw, value - hw) == pytest.approx(
            (max(down, up), min(down, up)), rel=1e-12, abs=0), k


def full_lattice(pair, k_max):
    """Each end's E[K], E[K^2], crossing sum and Pr(K > k), k = 0..k_max,
    from the renewal and pmf sums against the service ccdf at every point
    of ``pair``'s lattice, spanned as the record spans them."""
    cells, x, c = lattice_cells(pair)
    gaps = np.stack(cells)
    once, twice = analytic._renewal_sums(gaps, np.stack((c, x * c)))
    first = 1.0 - c[0]
    k1, k2, crossing = first + once[:, 0], first + twice, once[:, 1]
    h = pair.interarrival.mean() / analytic._LATTICE_STEPS
    lo = crossing[1] - 0.5 * h * (k2[1] - k1[1])
    hi = crossing[0] + 0.5 * h * (k2[0] - k1[0])
    mid = 0.5 * (crossing[0] + crossing[1])
    survival = analytic._survival(gaps, c[None], k_max)[:, 0]
    survival[:, 0] = 1.0
    return (Interval.between(*k1), Interval.between(*k2),
            Interval(mid, max(mid - lo, hi - mid)),
            Interval.between(*survival))


FOLD_GAPS = [Uniform(0.0, 2.0), Rayleigh(1.0),
             Hyperexponential((0.5, 0.5), (0.5, 2.0)),
             ShiftedExponential(0.25, 0.5), Erlang(2, 2.0)]
FOLD_PAIRS = [(y, s) for y in FOLD_GAPS
              for s in (ShiftedExponential(2.0, 0.5),
                        ShiftedExponential(1.0, 0.1))]
FOLD_PAIRS.append((Uniform(0.0, 0.2), ShiftedExponential(0.5, 3.0)))


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("y,s", FOLD_PAIRS, ids=[
    f"{y.kind}/{s.describe()}" for y, s in FOLD_PAIRS])
def test_folded_record_is_the_full_lattice(y, s, c):
    # Past its shift a shifted exponential service is memoryless, so the
    # record folds the lattice there into closed-form weights; it must
    # give what the renewal and pmf sums over every lattice point give.
    # A half-width is a difference of the two ends, so it is held to the
    # value's scale, and each Pr(K > k) to a few hundred eps.
    pair = Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    record = pair.cycles(DROPPING)
    assert record.path == "lattice"
    *want, survival = full_lattice(pair, K_MAX)
    for got, ref in zip((*record.moments(), record.crossing()), want):
        assert abs(got.value - ref.value) <= 1e-10 * ref.value, (got, ref)
        assert abs(got.half_width - ref.half_width) <= 1e-10 * ref.value
    probs, tail = record.pmf(K_MAX)
    mid, hw = survival
    assert probs.value == pytest.approx(mid[:-1] - mid[1:], rel=0, abs=1e-13)
    assert probs.half_width == pytest.approx(hw[:-1] + hw[1:], rel=0,
                                             abs=1e-13)
    assert (tail.value, tail.half_width) == pytest.approx(
        (mid[-1], hw[-1]), rel=0, abs=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_far_shift_folds_without_overflow():
    # rate * shift = 1000: e^(rate shift) overflows, and the fold's
    # exponents are all <= 0.  The service ends by 1.03, so E[K] is near
    # sum_k Pr(T_k < 1) = sum_k 1/(2^k k!) = e^(1/2).
    pair = Pair(Uniform(0.0, 2.0), ShiftedExponential(1000.0, 1.0))
    *want, survival = full_lattice(pair, K_MAX)
    got = [*pair.cycles(DROPPING).moments(), pair.cycles(DROPPING).crossing()]
    for g, ref in zip(got, want):
        assert abs(g.value - ref.value) <= 1e-10 * ref.value, (g, ref)
    est = exact_age(pair, DROPPING)
    assert math.isfinite(est.value) and math.isfinite(est.ci_half_width)
    pmf = k_pmf(pair, K_MAX)
    assert all(math.isfinite(p.value) for p in pmf.pmf)


@pytest.mark.parametrize("y", [
    Uniform(0.0, 2.0), Rayleigh(1.0), Erlang(2, 2.0),
    Hyperexponential((0.5, 0.5), (0.5, 2.0)), ShiftedExponential(1.0, 0.3),
    Deterministic(0.7)], ids=lambda d: d.kind)
def test_an_unshifted_service_takes_the_exponential_record(y, monkeypatch):
    # SE(r, 0) is E(r): its dropping record is E(r)'s block record, bit for
    # bit with half-width 0, not a one-point folded lattice.
    monkeypatch.setattr(analytic, "_lattice_cycles", None)  # never reached
    shifted = Pair(y, ShiftedExponential(1.5, 0.0))
    plain = Pair(y, Exponential(1.5))
    assert exact_age(shifted, DROPPING) == exact_age(plain, DROPPING)
    assert exact_age(shifted, DROPPING).ci_half_width == 0.0
    assert corollary_one(shifted, DROPPING) == corollary_one(plain, DROPPING)
    assert k_pmf(shifted, K_MAX) == k_pmf(plain, K_MAX)


def test_pmf_entries_no_partial_sum_reaches_are_exact():
    # 40 gaps of at most 0.02 never reach the service time 1: Pr(K > k) = 1
    # for every k <= 40, so every Pr(K = k) is exactly 0, and each end's
    # total gap mass is exactly 1.
    pmf = k_pmf(Pair(Uniform(0.0, 0.02), Deterministic(1.0)), 40)
    assert [tuple(p) for p in pmf.pmf] == [(0.0, 0.0)] * 40
    assert tuple(pmf.tail_mass) == (1.0, 0.0)


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_half_width_covers_a_finer_lattice(y, s, monkeypatch):
    coarse = lattice(y, s)
    monkeypatch.setattr(analytic, "_LATTICE_STEPS",
                        4 * analytic._LATTICE_STEPS)
    fine = lattice(y, s)
    for i, ((value, hw), (finer, _)) in enumerate(zip(coarse, fine)):
        assert abs(value - finer) <= hw, (i, value, hw, finer)


# The first four at rate 1 and time scale 1; then every family at time
# scales 1e-6, 1 and 1e6, each against arrival rates 0.5/c and 2/c.
MG11_CASES = [pytest.param(s, 1.0, id=s.describe())
              for s in (Deterministic(0.5), Deterministic(1.0),
                        Uniform(0.0, 1.0), Rayleigh(0.5))] + [
    pytest.param(RESCALED[s.kind](s, c), rate / c,
                 id=f"{s.kind}-c{c:g}-rate{rate:g}")
    for s in ALL_KINDS for c in (1e-6, 1.0, 1e6) for rate in (0.5, 2.0)]


@pytest.mark.parametrize("s,lam", MG11_CASES)
def test_half_width_covers_the_mg11_age(s, lam):
    # With Poisson arrivals the dropping age is the M/G/1/1 closed form
    # E[(Y+S)^2] / (2 E[Y+S]) + E[S].
    y_second = 2.0 / lam**2
    mg11 = ((y_second + 2.0 * s.mean() / lam + s.second_moment())
            / (2.0 * (1.0 / lam + s.mean())) + s.mean())
    est = exact_age(LatticePair(Exponential(lam), s), DROPPING)
    assert abs(est.value - mg11) <= est.ci_half_width


UNBOUNDED = [d for d in ALL_KINDS if d.support()[1] == np.inf]


# Services whose rare, long phase holds most of E[S] or of E[S^2] with
# under 1e-13 of the mass: E[S] = 101 and E[S^2] = 2e18, then
# E[S] = 1 + 1e-10 and E[S^2] = 4.  The first has Pr(S > E[S]) = 1e-14, so
# its top is found by halving down from E[S].  Neither reaches the lattice
# through ``Pair``.
RARE_PHASES = [Hyperexponential((0.99999999999999, 1e-14), (1.0, 1e-16)),
               Hyperexponential((1.0, 1e-20), (1.0, 1e-10))]


@pytest.mark.parametrize("s", [pytest.param(d, id=d.kind) for d in UNBOUNDED]
                         + [pytest.param(RARE_PHASES[0], id="rare-phase")])
def test_truncation_point_is_the_first_passing_64th_of_an_octave(s):
    top = analytic._truncation_point(s)
    assert s.ccdf(top) <= analytic._SERVICE_TAIL
    lower = top * 2.0 ** (-1.0 / analytic._TOP_STEPS)
    assert s.ccdf(lower) > analytic._SERVICE_TAIL


def tail_shares(s, t):
    """E[S; S > t]/E[S] and E[S^2; S > t]/E[S^2] in closed form."""
    t = mpmath.mpf(t)
    if isinstance(s, Erlang):  # regularized upper incomplete gamma
        return [mpmath.gammainc(s.shape + j, s.rate * t, mpmath.inf,
                                regularized=True) for j in (1, 2)]
    if isinstance(s, ShiftedExponential):  # t is past the shift
        r, d = mpmath.mpf(s.rate), mpmath.mpf(s.shift)
        tail = mpmath.exp(-r * (t - d))
        return [tail * (t + 1 / r) / (d + 1 / r),
                tail * (t**2 + 2 * t / r + 2 / r**2)
                / (d**2 + 2 * d / r + 2 / r**2)]
    sigma = mpmath.mpf(s.scale)  # Rayleigh
    mean = sigma * mpmath.sqrt(mpmath.pi / 2)
    tail = mpmath.exp(-t**2 / (2 * sigma**2))
    return [(t * tail + mean * mpmath.erfc(t / (sigma * mpmath.sqrt(2)))) / mean,
            (t**2 + 2 * sigma**2) * tail / (2 * sigma**2)]


@pytest.mark.parametrize("s", [
    *(Erlang(n, 1.0) for n in (1, 2, 3, 10, 100, 1000, 10_000)),
    *(ShiftedExponential(1.0, 10.0**j) for j in range(-12, 13, 2)),
    Rayleigh(1.0)], ids=lambda d: d.describe())
def test_the_lattice_top_keeps_both_moments(s):
    # The lattice ends where the service keeps 1e-13 of its mass; for the
    # unbounded services that still reach it, the light tails beyond hold
    # a share of E[S] and of E[S^2] far below the lattice's own error.
    with mpmath.workdps(30):
        shares = tail_shares(s, analytic._truncation_point(s))
    assert max(shares) <= 1e-10, shares


@pytest.mark.parametrize("c", [1e-300, 1e-6, 1e6, 1e300])
@pytest.mark.parametrize("s", UNBOUNDED, ids=lambda d: d.kind)
def test_truncation_point_rescales_with_time(s, c):
    scaled = RESCALED[s.kind](s, c)
    assert analytic._truncation_point(scaled) == pytest.approx(
        c * analytic._truncation_point(s), rel=1e-12)


# At c = 1e152 and 1e153 the rare rate's square underflows.
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6, 1e152, 1e153])
@pytest.mark.parametrize("s", RARE_PHASES,
                         ids=["mean-in-tail", "second-in-tail"])
def test_a_moment_beyond_the_lattice_is_not_reached(s, c, monkeypatch):
    # The 1e-13 mass cut would drop the rare phase, and with it most of a
    # moment the age integrates.  Through ``Pair`` no hyperexponential
    # service reaches the lattice: the phase mix gives the ages and the pmf
    # at every time scale.
    monkeypatch.setattr(analytic, "_lattice_cycles", None)
    scaled = RESCALED[s.kind](s, c)
    y = Uniform(0.0, 2.0 * c)
    pair, want = Pair(y, scaled), mix_reference(y, scaled)
    est = exact_age(pair, DROPPING)
    assert_covers(est.value, est.ci_half_width, want.dropping)
    report = corollary_one(pair, DROPPING)
    assert_covers(report.value, report.half_width, want.corollary1)
    pmf = k_pmf(Pair(Exponential(1.0 / c), scaled), K_MAX)
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
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    for i, ((value, hw), (mix, mix_hw)) in enumerate(zip(
            intervals(LatticePair(y, s)), intervals(Pair(y, s)))):
        slack = roundoff if i >= 2 else 0.0
        assert abs(value - mix) <= hw + mix_hw + slack, (value, hw, mix, mix_hw)


def test_deep_cycle_guard():
    # E[K] = 1 + lam d = 15001: the lattice coarsens to 16 points per mean
    # gap to stay within its point budget and still lands on the age.
    lam, d = 150.0, 100.0
    age = 1.0 / lam + lam * d * d / (2.0 * (1.0 + lam * d)) + d
    tracemalloc.start()
    try:
        est = exact_age(LatticePair(Exponential(lam), Deterministic(d)),
                        DROPPING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert 0.0 < est.ci_half_width < 0.1 * age
    assert abs(est.value - age) <= est.ci_half_width


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


@pytest.mark.parametrize("y,s", [
    (Uniform(0.0, 0.2), Rayleigh(2.0)),
    (Uniform(0.0, 0.02), Deterministic(1.0)),
    (Uniform(0.0, 2.0), Erlang(2, 2.0)),
    (ShiftedExponential(0.25, 0.5), ShiftedExponential(1.0, 0.1)),
], ids=["deep-U/R", "deep-U/D", "U/Erlang", "SE/SE"])
@pytest.mark.parametrize("k_max", [1, 2, 10])
def test_a_short_pmf_is_the_prefix_of_a_long_one(y, s, k_max):
    # A short call reads a shorter lattice prefix on a shorter transform;
    # both must give the same probabilities and half-widths.
    long = k_pmf(Pair(y, s), 400).pmf[:k_max]
    short = k_pmf(Pair(y, s), k_max).pmf
    assert np.array(short) == pytest.approx(np.array(long), rel=0, abs=1e-12)


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
    assert pair.cycles(DROPPING).crossing().half_width >= 0.0
    assert exact_age(pair, DROPPING).ci_half_width >= 0.0


def test_pmf_transform_is_sized_by_the_powers_it_reads(monkeypatch):
    # The deep pair has 40018 lattice points, but Pr(K > k), k <= 10, reads
    # only 10 * 512 + 1 of them.
    sizes = []

    def recorded(a, n=None, *args, _original=np.fft.rfft):
        sizes.append(n)
        return _original(a, n, *args)
    monkeypatch.setattr(np.fft, "rfft", recorded)
    k_pmf(Pair(Uniform(0.0, 0.2), Rayleigh(2.0)), 10)
    assert len(sizes) == 2  # the weights, then both ends' gap spectra
    assert max(sizes) <= analytic._fft_size(4 * (10 * 512 + 1)) == 24576


@pytest.mark.parametrize("y,s", [PAIRS[-1], PAIRS[0]],
                         ids=["full-deep-U/R", "folded-SE/SE"])
def test_each_op_builds_only_the_transform_it_reads(y, s, monkeypatch):
    # Each transform weighs all its weight vectors in one call and takes
    # both ends' gap spectra in another: the renewal transform c and x c
    # (or the folded weights), the pmf transform G - 1 (or kappa and the
    # gap mass past the head).
    calls = dict.fromkeys(["rfft", "_renewal_sums", "_survival"], 0)
    for owner, name in ((np.fft, "rfft"), (analytic, "_renewal_sums"),
                        (analytic, "_survival")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    k_pmf(Pair(y, s), K_MAX)
    assert calls == {"rfft": 2, "_renewal_sums": 0, "_survival": 1}
    pair = Pair(y, s)
    exact_age(pair, DROPPING)
    assert calls == {"rfft": 4, "_renewal_sums": 1, "_survival": 1}
    k_moments(pair)
    pair.cycles(DROPPING).crossing()
    corollary_one(pair, DROPPING)
    assert calls == {"rfft": 4, "_renewal_sums": 1, "_survival": 1}


@pytest.mark.parametrize("compute", [
    lambda pair: exact_age(pair, DROPPING),
    lambda pair: k_moments(pair),
    lambda pair: k_pmf(pair, K_MAX)], ids=["exact", "moments", "kpmf"])
def test_too_deep_cycle_raises(compute):
    # E[K] = 100001 needs 1.6e6 points even at 16 per mean gap.
    with pytest.raises(TruncationNotReached):
        compute(LatticePair(Exponential(1000.0), Deterministic(100.0)))
