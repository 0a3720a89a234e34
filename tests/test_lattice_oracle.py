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
    pmf = k_pmf(RecordPair(Deterministic(d), s, "d_arrivals"), 2 * n)
    with mpmath.workdps(40):
        tail = [ccdf(k * mpmath.mpf(d)) for k in range(2 * n + 1)]
    for k in range(n, 2 * n + 1):
        got = pmf.pmf[k - 1]
        assert abs(got.value - float(tail[k - 1] - tail[k])) <= got.half_width
    assert 0.0 < float(tail[2 * n]) <= pmf.tail_mass.half_width
    assert pmf.tail_mass.value == 0.0


def left_ccdf(s, x):
    """Pr(S >= x): a D(v) service's is 1 up to v itself; every other law
    here has no atom, so there it equals Pr(S > x)."""
    if isinstance(s, Deterministic):
        return np.where(x <= s.value, 1.0, 0.0)
    return s.ccdf(x)


def bracket_step(pair):
    """The bracketing solve's step, rebuilt from its rule: a quarter of the
    finest level's step, doubled while the lattice would hold 2^18 points
    or more."""
    top = analytic._truncation_point(pair.service)
    h = analytic._level_step(pair.interarrival.mean(), pair.interarrival,
                             pair.service) / 4.0
    while top / h >= analytic._MAX_LATTICE - 1:
        h *= 2.0
    return h


def lattice_cells(pair):
    """The gap cells, rounded down and then up, the lattice points and the
    service ccdf each end reads on them, for ``pair``'s solves, rebuilt
    from their definition: Pr(S > x) for the down end, Pr(S >= x) for the
    up end, one row for both where they agree."""
    h = bracket_step(pair)
    n = int(analytic._truncation_point(pair.service) / h) + 2
    x = h * np.arange(n)
    for b in filter(math.isfinite, pair.service.support()):
        j = round(b / h)  # point 0 stays exact: only a kink at 0 lies on it
        if 0 < j < n and abs(x[j] - b) <= analytic._SNAP * h:
            x[j] = b
    tail = pair.interarrival.ccdf(h * np.arange(n + 1))
    cell = tail[:-1] - tail[1:]
    c, up = pair.service.ccdf(x), left_ccdf(pair.service, x)
    return ((cell, np.append(0.0, cell[:-1])), x,
            c if np.array_equal(c, up) else np.stack((c, up)))


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
    # record's Pr(K > k) spans the two ends, and where a power can leave
    # the lattice, the transform's roundoff too (at most 1e-11 here).
    pair = RecordPair(y, s)
    cells, _, c = lattice_cells(pair)
    ends = []
    for f, g in zip(cells, np.broadcast_to(c, (2, c.shape[-1]))):
        want, power = [], np.array([1.0])
        for _ in range(K_MAX):
            power = np.convolve(power, np.trim_zeros(f, "b"))[:g.size]
            want.append(float(power @ g[:power.size]))
        ends.append(want)
    for k, (down, up) in enumerate(zip(*ends), start=1):
        value, hw = pair.cycles(DROPPING).pmf(k)[1]
        roundoff = hw - 0.5 * abs(down - up)
        assert value == pytest.approx(0.5 * (down + up), rel=1e-12, abs=0), k
        assert -1e-12 * value <= roundoff <= 1e-11, k


def full_lattice(pair, k_max):
    """Each end's E[K], E[K^2], crossing sum and Pr(K > k), k = 0..k_max,
    from the renewal and pmf sums against the service ccdf at every point
    of ``pair``'s lattice, spanned as the record spans them: each sum's
    interval also spans both computed ends, widened by the transform's
    relative roundoff."""
    cells, x, c = lattice_cells(pair)
    gaps = np.stack(cells)
    (once, crossing), (twice, _), noise = analytic._renewal_sums(
        gaps, np.stack((c, x * c), axis=-2))
    first = 1.0 - c[..., 0]
    k1, k2 = first + once, first + twice
    h = bracket_step(pair)
    lo = min(crossing[1] - 0.5 * h * (k2[1] - k1[1]), *crossing)
    hi = max(crossing[0] + 0.5 * h * (k2[0] - k1[0]), *crossing)
    mid = 0.5 * (crossing[0] + crossing[1])
    survival = analytic._survival(gaps, c[..., None, :], k_max)[0][:, 0]
    survival[:, 0] = 1.0

    def widened(interval, ends):
        return Interval(interval.value,
                        interval.half_width + noise * np.abs(ends).max())
    return (widened(Interval.between(*k1), k1),
            widened(Interval.between(*k2), k2),
            widened(Interval(mid, max(mid - lo, hi - mid)), crossing),
            Interval.between(*survival))


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


def unfold(monkeypatch):
    """Let every lattice record built from now on take the power sums'
    tail rule on the pmf builder's prefix, whatever its service."""
    monkeypatch.setattr(analytic, "_folded", analytic._powered)


@pytest.mark.parametrize("y,s", FOLD_PAIRS, ids=[
    f"{y.kind}/{s.describe()}" for y, s in FOLD_PAIRS])
def test_a_folded_record_takes_the_full_lattice_sums(y, s, monkeypatch):
    # The fold builds only the pmf: E[K], E[K^2], the crossing sum and the
    # age's middle term come from the full lattice, bit for bit, on the
    # levels and on the bracketing solve.  Phase-type gaps take their own
    # record through ``Pair``; the folded lattice is held on them by its
    # records.
    records = Pair(y, s).records(DROPPING)
    for name in ("lattice", "bracketing"):
        with monkeypatch.context() as patch:
            unfold(patch)
            want = record_intervals(Pair(y, s).records(DROPPING)[name])
        assert record_intervals(records[name]) == want
    if not unshifted(y):
        record = Pair(y, s).cycles(DROPPING)
        assert (record.name, record.path) == ("lattice", "lattice")
        assert record_intervals(record) == record_intervals(records["lattice"])


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("y,s", FOLD_PAIRS, ids=[
    f"{y.kind}/{s.describe()}" for y, s in FOLD_PAIRS])
def test_folded_record_is_the_full_lattice(y, s, c, monkeypatch):
    # Past its shift a shifted exponential service is memoryless, so the
    # pmf's lattice folds there into closed-form weights: each Pr(K > k)
    # must be what the pmf sums over every lattice point give, to 1e-13,
    # its half-width widened by no more than the fold's roundoff term.
    # Phase-type gaps take their own record through ``Pair``; the folded
    # lattice is held on them by direct calls.
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    assert Pair(y, s).cycles(DROPPING).path == (
        "closed_form" if unshifted(y) else "lattice")
    *_, survival = full_lattice(Pair(y, s), K_MAX)
    noises = kernel_noises(monkeypatch)
    probs, tail = Pair(y, s).records(DROPPING)["bracketing"].pmf(K_MAX)
    mid, hw = survival
    (noise,) = noises
    roundoff = 2.0 * noise * np.arange(K_MAX + 1.0)  # tau_k's and beta_k's
    assert probs.value == pytest.approx(mid[:-1] - mid[1:], rel=0, abs=1e-13)
    assert tail.value == pytest.approx(mid[-1], rel=0, abs=1e-13)
    for got, full, term in ((probs.half_width, hw[:-1] + hw[1:],
                             roundoff[:-1] + roundoff[1:]),
                            (tail.half_width, hw[-1], roundoff[-1])):
        assert np.all(full - 1e-13 <= got)
        assert np.all(got <= full + term + 1e-13)


def kernel_noises(monkeypatch):
    """The roundoff bound of each ``analytic._survival`` call from now on."""
    noises = []

    def recorded(*args, _original=analytic._survival):
        powers, noise = _original(*args)
        noises.append(noise)
        return powers, noise
    monkeypatch.setattr(analytic, "_survival", recorded)
    return noises


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
    # As above on the unfolded lattice, whose powers stay on it up to
    # k = 12: each entry is M^k plus the power against G - 1, which
    # carries the kernel's roundoff.
    unfold(monkeypatch)
    record = Pair(*COVERAGE_PAIRS[0]).records(DROPPING)["bracketing"]
    probs, tail = record.pmf(12)
    assert np.all(np.abs(probs.value) <= probs.half_width)
    assert abs(tail.value - 1.0) <= tail.half_width


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_far_shift_folds_without_overflow():
    # rate * shift = 1000: e^(rate shift) overflows, and the fold's
    # exponents are all <= 0.  The service ends by 1.03, so E[K] is near
    # sum_k Pr(T_k < 1) = sum_k 1/(2^k k!) = e^(1/2).  The ages on the
    # levels and on the bracketing solve must be finite, and the folded
    # pmf must be the one every lattice point gives.
    y, s = Uniform(0.0, 2.0), ShiftedExponential(1000.0, 1.0)
    pair = Pair(y, s)
    ests = [exact_age(pair, DROPPING),
            exact_age(RecordPair(y, s, "bracketing"), DROPPING)]
    for est in ests:
        assert math.isfinite(est.value) and math.isfinite(est.ci_half_width)
    *_, (mid, _) = full_lattice(pair, K_MAX)
    pmf = k_pmf(pair, K_MAX)
    assert [p.value for p in pmf.pmf] == pytest.approx(
        mid[:-1] - mid[1:], rel=0, abs=1e-13)


def test_a_folded_pmf_reads_only_the_gaps_prefix(monkeypatch):
    # U(0, 0.2) gaps against SE(0.5, 3): the gap ccdf is 0 from 0.2 on, so
    # the pmf builder evaluates it on the b/h + 2 points that hold every
    # non-zero cell, and at (n-1)h and nh for the gap mass; the fold reads
    # that prefix, not all n + 1 (about 161000) points.
    y, s = Uniform(0.0, 0.2), ShiftedExponential(0.5, 3.0)
    most = 0.2 / bracket_step(Pair(y, s)) + 6
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


def test_pmf_entries_no_partial_sum_reaches_are_exact():
    # 40 gaps of at most 0.02 never reach the service time 1: Pr(K > k) = 1
    # for every k <= 40, so every Pr(K = k) is exactly 0, and each end's
    # total gap mass is exactly 1.
    pmf = k_pmf(Pair(Uniform(0.0, 0.02), Deterministic(1.0)), 40)
    assert [tuple(p) for p in pmf.pmf] == [(0.0, 0.0)] * 40
    assert tuple(pmf.tail_mass) == (1.0, 0.0)


def test_pmf_roundoff_past_the_lattice_is_in_the_half_width():
    # Up to k_max = 60 the gaps' powers can leave the lattice, so Pr(K > k)
    # sums them against G and carries the transform's roundoff, which no
    # rounding brackets: every Pr(K = k), k <= 40, is exactly 0 and must
    # lie within its half-width.
    pmf = k_pmf(Pair(Uniform(0.0, 0.02), Deterministic(1.0)), 60)
    assert all(abs(p.value) <= p.half_width for p in pmf.pmf[:40])


# Pairs whose kinks (U(0.5, 1)'s lower end, the SE gaps' shift) lie on
# every level only since the step puts every kink of both laws there:
# they took the bracketing solve at 1.0-1.3e-3 of the age while only the
# service's last kink was aligned, and take the levels at 2.6e-5 and
# 1.1e-5.
REALIGNED = [(Rayleigh(1.0), Uniform(0.5, 1.0)),
             (ShiftedExponential(1.0, 0.5), Uniform(0.0, 2.0))]
# Pairs whose levels, every kink on them, still fail a check, so that
# their sums keep the bracketing solve at 1.3-1.9e-4 of the age: E[K] is
# exact on the lattice, its bracket roundoff alone, and its roundoff
# half-width passes a quarter of that bracket.
FIRST_ORDER = [(ShiftedExponential(1.0, 0.5), Deterministic(0.7)),
               (Uniform(0.5, 1.5), Deterministic(0.7))]


@pytest.mark.parametrize("y,s", [*PAIRS, (Rayleigh(1.0), Deterministic(0.7)),
                                 *REALIGNED],
                         ids=[*IDS, "R/D", "R/U-kink", "SE/U"])
def test_half_width_covers_a_finer_lattice(y, s, monkeypatch):
    # Every interval holds the midpoint of the bracketing solve on levels
    # 4 times finer, 1024 points or more per mean gap: SE/SE's kinks lie
    # off the lattice, so its levels' error swings.  R/D's jump lies on
    # both bracketing lattices, where the midpoint takes the trapezoid
    # rule's half value; its age, E[K] and E[K^2] must also lie inside
    # the finer proven bracket, and within their half-widths of levels 4
    # times finer.
    coarse = lattice(y, s)
    jump = s.support()[0] == s.support()[1]
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "_LEVEL_STEPS", 4 * analytic._LEVEL_STEPS)
        levels = lattice(y, s) if jump else None
        fine = lattice(y, s, "bracketing")
    for i, ((value, hw), (finer, finer_hw)) in enumerate(zip(coarse, fine)):
        assert abs(value - finer) <= hw, (i, value, hw, finer)
        if jump and i < 3:
            assert abs(value - finer) <= finer_hw, (i, value, finer, finer_hw)
            assert abs(value - levels[i][0]) <= hw, (i, value, hw, levels[i])


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
                         + [PAIRS[-1], *REALIGNED, *FIRST_ORDER],
                         ids=["E/R", "E/U", "deep-U/R", "R/U-kink", "SE/U",
                              "SE/D-0.7", "U/D-0.7"])
def test_an_order_out_of_range_takes_the_bracketing_solve(y, s):
    # The full lattice's bracketing record is the bracketing solve at a
    # quarter of the levels' step, bit for bit, as a folded one's is
    # (test_a_folded_record_takes_the_full_lattice_sums).  Where an
    # observed order falls out of range, as on the first-order pairs, the
    # lattice record takes those sums; the realigned pairs take their
    # levels.
    assert_is_the_bracketing_solve(RecordPair(y, s, "bracketing"))
    records = Pair(y, s).records(DROPPING)
    if (y, s) in FIRST_ORDER:
        assert records["lattice"].sums() == records["bracketing"].sums()
    if (y, s) in REALIGNED:
        assert records["lattice"].sums() != records["bracketing"].sums()


def assert_is_the_bracketing_solve(pair):
    record = pair.cycles(DROPPING)
    *want, _ = full_lattice(pair, K_MAX)
    assert list(record.sums()) == [*want, want[2].over(want[0])]


def renewal_weights(monkeypatch):
    """The weights' shape of each ``analytic._renewal_sums`` call from now
    on."""
    shapes = []
    renewal_sums = analytic._renewal_sums
    monkeypatch.setattr(analytic, "_renewal_sums", lambda *a: (
        shapes.append(a[1].shape), renewal_sums(*a))[1])
    return shapes


def test_a_deterministic_service_takes_the_levels(monkeypatch):
    # The levels put a D service's jump on every level, where the down end
    # reads 0 and the up end 1: the midpoint takes the trapezoid rule's
    # half value there, and the levels' error is a series in h^2.  The
    # record keeps the levels, three renewal transforms, each weighing c
    # and x c once per end.
    shapes = renewal_weights(monkeypatch)
    pair = Pair(Rayleigh(1.0), Deterministic(0.7))
    est = exact_age(pair, DROPPING)
    assert [shape[:2] for shape in shapes] == [(2, 2)] * 3
    assert 0.0 < est.ci_half_width <= 1e-4 * est.value


@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_only_a_point_mass_weighs_each_end_apart(s, monkeypatch):
    # Pr(S >= x) differs from Pr(S > x) only at an atom, so every other
    # service keeps one weight vector for both ends, on the renewal sums
    # and on the pmf; for U, whose upper end's left limit is 0, too.  At
    # U(0, 2) gaps every service end here lies on the pmf's lattice.
    shapes = renewal_weights(monkeypatch)
    unfold(monkeypatch)  # the fold weighs each end apart whatever the law
    noises = []
    survival = analytic._survival
    monkeypatch.setattr(analytic, "_survival", lambda *a: (
        noises.append(a[1].shape), survival(*a))[1])
    record = Pair(Uniform(0.0, 2.0), s).records(DROPPING)["lattice"]
    record.sums()
    record.pmf(K_MAX)
    ends = (2,) if s.support()[0] == s.support()[1] else ()
    assert shapes and all(shape[:-2] == ends for shape in shapes)
    assert [shape[:-2] for shape in noises] == [ends]


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


def direct_renewal_sums(gaps, weights):
    """``_renewal_sums`` of one end's cells by the recursion
    u_l = (delta_l + sum_{i=1..l} f_i u_(l-i)) / (1 - f_0), in long
    doubles."""
    f = gaps.astype(np.longdouble)
    u = np.zeros(f.size, dtype=np.longdouble)
    u[0] = 1 / (1 - f[0])
    for l in range(1, f.size):
        u[l] = (f[1:l + 1] @ u[l - 1::-1]) / (1 - f[0])
    square = 2 * np.convolve(u, u)[:f.size] - u
    return [*(u @ weights.T.astype(np.longdouble)),
            *(square @ weights.T.astype(np.longdouble))]


@pytest.mark.parametrize("y,s,m", [
    (Uniform(0.0, 0.2), Rayleigh(2.0), 8),
    (Rayleigh(1.0), Rayleigh(1.0), 256),
    (ShiftedExponential(0.25, 0.5), ShiftedExponential(1.0, 0.1), 64)],
    ids=["deep-U/R", "R/R", "SE/SE"])
def test_renewal_roundoff_bounds_a_direct_solve(y, s, m):
    # The tilted transform's roundoff, the relative bound it reports, must
    # hold every sum of both ends against a long-double recursion.
    h = y.mean() / m
    n = int(analytic._truncation_point(s) / h) + 2
    x = h * np.arange(n)
    tail = y.ccdf(h * np.arange(n + 1))
    gaps, weights = analytic._cells(tail), np.stack((s.ccdf(x), x * s.ccdf(x)))
    once, twice, noise = analytic._renewal_sums(gaps, weights)
    for end in range(2):
        got = [*once[:, end], *twice[:, end]]
        for value, want in zip(got, direct_renewal_sums(gaps[end], weights)):
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


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_every_service_kink_lies_on_the_bracketing_lattice(s, c, monkeypatch):
    # The bracketing solve takes a quarter of the finest level's step,
    # which puts every kink of both laws on every level (R gaps have none,
    # so here the service's: U(0.5, 2)'s two ends), and so on its lattice
    # too: the pmf lattice holds each finite end of the support as a
    # point.  The fold reads no points, only whether the SE shift is on one
    # (``_kink``), so the SE service's lattice is read unfolded.
    y, s = Rayleigh(c), RESCALED[s.kind](s, c)
    unfold(monkeypatch)
    lattices = []

    def recorded(service, h, n, _original=analytic._points):
        x, atom = _original(service, h, n)
        lattices.append(x)
        return x, atom
    monkeypatch.setattr(analytic, "_points", recorded)
    Pair(y, s).records(DROPPING)["bracketing"].pmf(K_MAX)
    (x,) = lattices
    assert x[1] == pytest.approx(bracket_step(Pair(y, s)), rel=1e-15)
    for b in filter(math.isfinite, s.support()):
        assert b in x, (b, x[1], b / x[1])


def on_lattice(b, h):
    """Whether the kink b lies within ``_SNAP`` steps of a point jh, j >= 1,
    one kink and one step at a time."""
    j = round(b / h)
    return j >= 1 and abs(h * j - b) <= analytic._SNAP * h


def scalar_level_step(y, s):
    """The finest level's step by its rule, one candidate at a time: the
    largest b/4j, j from ceil(b/4h) on, h = E[Y]/64 and b the largest kink,
    at least h/2 that puts every finite positive support end of both laws
    on the coarsest level; else the same for the service's last kink
    alone; else h.  Also whether every kink fits."""
    h = y.mean() / analytic._LEVEL_STEPS
    ends = [[b for b in law.support() if 0.0 < b < math.inf] for law in (s, y)]
    for every, kinks in ((True, ends[0] + ends[1]), (False, ends[0][-1:])):
        if not kinks:
            continue
        b = max(kinks)
        first = max(1, math.ceil(b / (4.0 * h) - analytic._SNAP))
        for j in range(first, 2 * first + 1):
            step = b / (4.0 * j)
            if step < 0.5 * h:
                break
            if all(on_lattice(k, 4.0 * step) for k in kinks):
                return step, every
    return h, False


# SE(0.25, 0.5) gaps put a step of E[Y]/64 = 0.07 past most kinks: there
# the search on every kink finds none.
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
    # The finest level's step is the scalar search's, bit for bit.  Where
    # it puts every kink on the coarsest level, each finite end of either
    # law's support lies on the same point of every level (and of the
    # bracketing lattice, a quarter of the step): its index doubles as the
    # step halves.  The realigned pairs are among them.
    realigned = (y, s) in REALIGNED
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    step = analytic._level_step(y.mean(), y, s)
    want, every = scalar_level_step(y, s)
    assert step == want
    assert every or not realigned
    if not every:
        return
    kinks = [b for law in (y, s) for b in law.support() if 0.0 < b < math.inf]
    for b in kinks:
        index = round(b / (4.0 * step))
        for stride in (4, 2, 1, 0.25):
            assert analytic._kink(b, stride * step), (b, stride, step)
            assert round(b / (stride * step)) == index * 4 / stride


def test_the_deep_step_search_matches_the_scalar_search():
    # About 13000 candidates for four kinks, of which 0.0003 and 0.0021
    # fit only at j = 20000, step 1.25e-5 against E[Y]/64 = 1.875e-5.
    y, s = Uniform(0.0003, 0.0021), Uniform(0.5, 1.0)
    assert analytic._level_step(y.mean(), y, s) == scalar_level_step(y, s)[0]
    assert scalar_level_step(y, s) == (1.0 / 80_000, True)


def test_levels_that_agree_to_roundoff_are_taken_as_they_are(monkeypatch):
    # U(0.5, 1.5) gaps against a U(0.5, 1) service: K <= 2, so E[K] =
    # 1 + Pr(S > Y) = 5/4 and the crossing sum E[Y Pr(S > Y)] = 1/6, and
    # the age is 13/24 + (1/6)/(5/4) + 3/4 = 1.425.  Every kink lies on
    # every level, where E[K]'s and E[K^2]'s levels agree to roundoff: they
    # take the finest value with the roundoff half-width, and the age holds
    # the closed form and the levels 8 times finer, its half-width at most
    # 1e-4 of it.
    y, s = Uniform(0.5, 1.5), Uniform(0.5, 1.0)
    record = Pair(y, s).cycles(DROPPING)
    k_mean = record.sums()[0]
    assert record.name == "lattice"
    assert abs(k_mean.value - 1.25) <= k_mean.half_width <= 1e-10  # 1.3e-11
    est = exact_age(Pair(y, s), DROPPING)
    assert est.method == "lattice"
    assert abs(est.value - 1.425) <= est.ci_half_width <= 1e-4 * est.value
    monkeypatch.setattr(analytic, "_LEVEL_STEPS", 8 * analytic._LEVEL_STEPS)
    finer = exact_age(Pair(y, s), DROPPING)
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


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_the_bracketing_solve_carries_its_roundoff(c):
    # Every U(c, c(1 + 1e-9)) gap outlasts a D(0.7c) service, so K = 1 and
    # the crossing sum is 0.  The levels fail on this pair, and the
    # bracketing solve's ends land within the transform's roundoff of 1
    # and 0, on either side of them: each interval must hold the value,
    # and none may be turned inside out.
    pair = Pair(Uniform(c, c * (1.0 + 1e-9)), Deterministic(0.7 * c))
    sums = pair.cycles(DROPPING).sums()
    for got, want in zip(sums, (1.0, 1.0, 0.0, 0.0)):
        assert abs(got.value - want) <= got.half_width, (got, want)
    est = exact_age(pair, DROPPING)
    assert abs(est.value - (pair.head + 0.7 * c)) <= est.ci_half_width


def test_the_up_end_reads_the_left_limit_at_the_jump(monkeypatch):
    # The bracketing solve on U(0, 2)/D(1), at 256 points per mean gap: the
    # up end reads Pr(S >= 1) = 1 at the jump, so the proven bracket still
    # holds E[K] = e^(1/2), and is narrower than with both ends reading
    # Pr(S > x), as they did before (+-8.1e-4 against +-2.4e-3); so is
    # each Pr(K = k) (+-4.9e-4 against +-9.8e-4 at k = 2).
    pair = RecordPair(Uniform(0.0, 2.0), Deterministic(1.0), "bracketing")
    k_mean, pmf = pair.cycles(DROPPING).sums()[0], k_pmf(pair, K_MAX)
    assert abs(k_mean.value - math.exp(0.5)) <= k_mean.half_width

    def both_strict(service, h, n):
        x, _ = analytic._points(service, h, n)
        return x, service.ccdf(x)
    monkeypatch.setattr(analytic, "_ends_ccdf", both_strict)
    strict = RecordPair(pair.interarrival, pair.service, "bracketing")
    was, was_pmf = strict.cycles(DROPPING).sums()[0], k_pmf(strict, K_MAX)
    assert abs(was.value - math.exp(0.5)) <= was.half_width
    assert k_mean.half_width < 0.5 * was.half_width
    assert all(p.half_width <= q.half_width
               for p, q in zip(pmf.pmf, was_pmf.pmf))
    assert pmf.pmf[1].half_width < 0.6 * was_pmf.pmf[1].half_width


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


def scalar_search(s):
    """The lattice top by doubling from E[S], halving back, and then the
    64ths of the octave found."""
    x = s.mean()
    while s.ccdf(x) > analytic._SERVICE_TAIL:
        x *= 2.0
    while s.ccdf(0.5 * x) <= analytic._SERVICE_TAIL:
        x *= 0.5
    tries = 0.5 * x * np.exp2(np.arange(1, 65) / 64)
    return float(tries[np.argmax(s.ccdf(tries) <= analytic._SERVICE_TAIL)])


@pytest.mark.parametrize("s,c", [
    *((d, c) for d in UNBOUNDED for c in (1e-300, 1e-6, 1.0, 1e6, 1e300)),
    *((d, c) for d in RARE_PHASES for c in (1e-6, 1.0, 1e6))],
    ids=lambda v: v.kind if hasattr(v, "kind") else f"{v:g}")
def test_truncation_point_is_the_scalar_search(s, c):
    # Two array calls of the ccdf find the point bit for bit.
    scaled = RESCALED[s.kind](s, c)
    assert analytic._truncation_point(scaled) == scalar_search(scaled)


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


def test_a_cycle_that_fits_at_a_sixteenth_of_a_gap_solves():
    # The SE(0.0025, 0.04) service's shift shrinks the finest level's step
    # to E[Y]/100, so four times it, E[Y]/25, still leaves its 1.2e4 top
    # past the point budget; at E[Y]/16 it fits.  The bracketing step
    # doubles on until it fits, and the age holds the M/G/1/1 closed form.
    y, s = Exponential(1.0), ShiftedExponential(0.0025, 0.04)
    top = analytic._truncation_point(s)
    fine = analytic._level_step(y.mean(), y, s)
    assert top / (4.0 * fine) >= analytic._MAX_LATTICE > 16.0 * top
    mg11 = ((2.0 + 2.0 * s.mean() + s.second_moment())
            / (2.0 * (1.0 + s.mean())) + s.mean())
    assert "lattice" not in Pair(y, s).records(DROPPING)  # no levels
    est = exact_age(RecordPair(y, s, "bracketing"), DROPPING)
    assert 0.0 < est.ci_half_width < 0.1 * mg11
    assert abs(est.value - mg11) <= est.ci_half_width


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
    # both must give the same probabilities and half-widths, but for the
    # transform's roundoff that the long call's half-widths carry where its
    # powers can leave the lattice (a few 1e-12 on the deep pairs).
    long = np.array(k_pmf(Pair(y, s), 400).pmf[:k_max])
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


def fft_sizes(monkeypatch):
    """The length of each ``np.fft.rfft`` call from now on, in order."""
    sizes = []

    def recorded(a, n=None, *args, _original=np.fft.rfft):
        sizes.append(n)
        return _original(a, n, *args)
    monkeypatch.setattr(np.fft, "rfft", recorded)
    return sizes


def test_pmf_transform_is_sized_by_the_powers_it_reads(monkeypatch):
    # The deep pair has 40018 lattice points, but Pr(K > k), k <= 10, reads
    # only m = 10 * 512 + 1 of them: no power wraps, so the transform is
    # untilted on the smallest even length at least m, and only that
    # prefix of the lattice is built.
    y, s = Uniform(0.0, 0.2), Rayleigh(2.0)
    m = 10 * 512 + 1
    top = analytic._truncation_point(s)
    monkeypatch.setattr(analytic, "_truncation_point", lambda service: top)
    sizes, points = fft_sizes(monkeypatch), []

    def counted(self, x, _original=Distribution.ccdf):
        points.append(np.size(x))
        return _original(self, x)
    monkeypatch.setattr(Distribution, "ccdf", counted)
    k_pmf(Pair(y, s), 10)
    assert len(sizes) == 2  # the weights, then both ends' gap spectra
    assert max(sizes) <= 2 * analytic._fft_size(-(-m // 2)) == 6144
    # the service ccdf at the m points read, the gap ccdf on the prefix
    # that holds the gaps' support and at the lattice's last two points
    assert m <= sum(points) < 1.25 * m


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
    sizes = fft_sizes(monkeypatch)
    powers, noise = analytic._survival(gaps, weights, k_max)
    size = 2 * analytic._fft_size(-(-m // 2))
    assert sizes == [size, size] and m <= size < 4 * m
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
    # An unfolded lattice builds only the prefix that the powers read (all
    # of it where they can wrap, and every cell of gaps with no upper end):
    # the pmf must be the one all n points give, spanned the same way, its
    # half-widths no wider.  U/D's jump lies on the lattice, where the up
    # end reads Pr(S >= 1) = 1.  On all n points, Pr(K > k) is each end's
    # gap mass M^k plus the k-th power against G - 1 while k_max gaps stay
    # on the lattice, else the power against G.
    y, s = RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)
    cells, x, ccdf = lattice_cells(Pair(y, s))
    n = x.size
    tail = y.ccdf(bracket_step(Pair(y, s)) * np.arange(n + 1))
    gaps = np.stack(cells)
    stays = k_max * np.flatnonzero(gaps.any(axis=0))[-1] < n  # k_max (s-1)
    powers, noise = analytic._survival(
        gaps, (ccdf - stays)[..., None, :], k_max)
    mass = tail[0] - tail[[n, n - 1]]
    ends = powers[:, 0] + stays * mass[:, None] ** np.arange(k_max + 1.0)
    ends[:, 0] = 1.0
    (probs, hws), tail = analytic._pmf(ends.min(0) - noise,
                                       ends.max(0) + noise)
    got = k_pmf(Pair(y, s), k_max)
    assert ([p.value for p in got.pmf]
            == pytest.approx(probs, rel=0, abs=1e-13))
    assert got.tail_mass.value == pytest.approx(tail.value, rel=0, abs=1e-13)
    assert all(p.half_width <= w for p, w in zip(got.pmf, hws))
    assert got.tail_mass.half_width <= tail.half_width


@pytest.mark.parametrize("y,s", [PAIRS[-1], PAIRS[0]],
                         ids=["full-deep-U/R", "folded-SE/SE"])
def test_each_op_builds_only_the_transform_it_reads(y, s, monkeypatch):
    # Each transform weighs all its weight vectors in one call and takes
    # both ends' gap spectra in another: the renewal transforms c and x c,
    # one for each of the three levels, each on its own length, and the
    # pmf transform G - 1 (or, folded, kappa and the gap mass past the
    # head).
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
    after = {"rfft": 8, "_renewal_sums": 3, "_survival": 1}  # 3 levels
    assert calls == after
    pair.cycles(DROPPING).sums()
    corollary_one(pair, DROPPING)
    assert calls == after


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
