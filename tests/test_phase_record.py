"""The uniformized dropping record of ``aoi.analytic`` for gaps whose
``phases()`` is not None, against mpmath sums, the lattice, and itself
under rescaling; with one exponential phase it must be the M/G/1/1
record."""

import functools

import mpmath
import numpy as np
import pytest

from aoi import analytic
from aoi.analytic import Pair, exact_age, k_pmf
from aoi.bounds import corollary_one, mg11_ordering_bound
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.sim import Discipline
from test_closed_form_oracle import EPS
from test_distributions import ALL_KINDS, RESCALED, mp_poisson_mix
from test_records import quantities

DROPPING = Discipline.DROPPING
K_MAX = 4

H2 = Hyperexponential((0.5, 0.5), (0.5, 2.0))
GAPS = [Erlang(2, 2.0), H2]
SERVICES = [Deterministic(1.0), Uniform(0.5, 1.5), Rayleigh(0.5),
            ShiftedExponential(4.0, 0.2)]
PAIRS = [(y, s) for y in GAPS for s in SERVICES]
IDS = [f"{y.kind}/{s.kind}" for y, s in PAIRS]
# Far enough that every service here leaves under 1e-40 of N's mass past
# it, N the jumps a service spans at r = 2.
REFERENCE_JUMPS = 150


@functools.cache
def mp_sums(y, s, jumps=REFERENCE_JUMPS):
    """E[K], E[K^2], the crossing sum and Pr(K > k), k = 0..K_MAX, of the
    uniformized record's sums in mpmath: f the w-mix of negative binomials
    (n_i successes at r_i/r), u = delta + f*u by its recursion, and the
    service's P_j = Pr(N >= j) from its mpmath mixed-Poisson law."""
    with mpmath.workdps(30):
        _, (w, shapes, rates) = y.phases()
        r = mpmath.mpf(max(rates))
        f = [mpmath.mpf(0)] * (jumps + 1)
        for v, n, ri in zip(w, shapes, rates):
            p = mpmath.mpf(ri) / r
            for j in range(n, jumps + 1):
                f[j] += v * mpmath.binomial(j - 1, n - 1) * p**n * (1 - p)**(j - n)
        u = [mpmath.mpf(1)]
        for l in range(1, jumps + 1):
            u.append(mpmath.fdot(f[1:l + 1], u[::-1]))
        uu = [mpmath.fdot(u[:l + 1], u[l::-1]) for l in range(jumps + 1)]
        t = mp_poisson_mix(s, r, jumps)[1]
        p = [mpmath.mpf(1)] + t[:-1]
        survival, power = [mpmath.mpf(1)], [mpmath.mpf(1)] + [0] * jumps
        for _ in range(K_MAX):
            power = [mpmath.fdot(power[:l + 1], f[l::-1])
                     for l in range(jumps + 1)]
            survival.append(mpmath.fdot(power, p))
        return (mpmath.fdot(u, p),
                mpmath.fsum((2 * a - b) * c for a, b, c in zip(uu, u, p)),
                mpmath.fsum(u[j] * j * t[j] for j in range(jumps + 1)) / r,
                survival)


def record_values(pair):
    """E[K], E[K^2], the crossing sum, each Pr(K = k) and Pr(K > K_MAX)
    of ``pair``'s dropping record, as intervals."""
    record = pair.cycles(DROPPING)
    probs, tail = record.pmf(K_MAX)
    return [*record.sums()[:3],
            *(analytic.Interval(v, e) for v, e in zip(*probs)), tail]


def reference_values(y, s, c=1.0):
    """:func:`record_values`' quantities from :func:`mp_sums`, at time
    scale ``c`` (only the crossing sum carries time)."""
    k1, k2, crossing, survival = mp_sums(y, s)
    return ([k1, k2, c * crossing]
            + [survival[k - 1] - survival[k] for k in range(1, K_MAX + 1)]
            + [survival[K_MAX]])


def assert_holds_the_mpmath_sums(y, s, c):
    pair = Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    assert exact_age(pair, DROPPING).method == "closed_form"
    for i, (got, want) in enumerate(zip(record_values(pair),
                                        reference_values(y, s, c))):
        assert abs(got.value - float(want)) <= got.half_width, (i, got, want)
        # roundoff-sized: the kernel's roundoff and the sums past J, at
        # most 1e-9 of a moment or crossing sum and 1e-9 of probability
        assert got.half_width <= 1e-9 * max(abs(got.value), 1.0), (i, got)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_record_holds_the_mpmath_sums(y, s, c):
    assert_holds_the_mpmath_sums(y, s, c)


# Rates 2e154 apart: the slow phase's mean gap is far past every service,
# and at c = 1e6 E[Y^2] leaves the float range.
STIFF_H2 = Hyperexponential((0.5, 0.5), (1e-154, 2.0))


@pytest.mark.parametrize("c", [1e-6, 1.0])
@pytest.mark.parametrize("s", SERVICES, ids=lambda d: d.kind)
def test_stiff_h2_gaps_keep_the_record(s, c):
    # The fast phase sets J and the slow one adds only its long gaps, so
    # the record serves and holds the mpmath sums at roundoff size.
    pair = Pair(RESCALED[STIFF_H2.kind](STIFF_H2, c), RESCALED[s.kind](s, c))
    assert pair.cycles(DROPPING).name == "uniformized"
    assert_holds_the_mpmath_sums(STIFF_H2, s, c)


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_a_one_arrival_pmf_holds_the_mpmath_sums_untilted(y, s, monkeypatch):
    # At k_max = 1 the one power the record reads cannot wrap, so its sums
    # take the untilted transform, whose smaller roundoff bound must still
    # hold Pr(K = 1) and Pr(K > 1).
    alias = []

    def recorded(n, size, *args, _original=analytic._tilted):
        alias.append(args[0] if args else analytic._ALIAS_TILT)
        return _original(n, size, *args)
    monkeypatch.setattr(analytic, "_tilted", recorded)
    survival = mp_sums(y, s)[3]
    probs, tail = Pair(y, s).cycles(DROPPING).pmf(1)
    assert alias == [1.0]
    for got, hw, want in ((probs.value[0], probs.half_width[0],
                           1 - survival[1]), (*tail, survival[1])):
        assert abs(got - float(want)) <= hw, (got, hw, want)


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_a_short_jump_range_carries_its_tail(y, s, monkeypatch):
    # With the service top at its 1e-3 quantile J is short, and the sums
    # past it are no longer roundoff: each half-width must still hold the
    # full sums, the pmf's included.
    monkeypatch.setattr(analytic, "_SERVICE_TAIL", 1e-3)
    got = record_values(Pair(y, s))
    for i, (g, want) in enumerate(zip(got, reference_values(y, s))):
        assert abs(g.value - float(want)) <= g.half_width, (i, g, want)
    assert max(g.half_width / g.value for g in got[:3]) > 1e-9


@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_the_bracketing_solve_brackets_the_record(y, s):
    # The lattice's bracketing solve, read from the pair's records, proves
    # an interval for every quantity; each must hold the record's value.
    lattice = Pair(y, s).records(DROPPING)["bracketing"]
    probs, tail = lattice.pmf(K_MAX)
    want = [*lattice.sums()[:3],
            *(analytic.Interval(v, e) for v, e in zip(*probs)), tail]
    for i, (got, bracket) in enumerate(zip(record_values(Pair(y, s)), want)):
        assert abs(got.value - bracket.value) <= bracket.half_width, (
            i, got, bracket)


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("y,s", PAIRS, ids=IDS)
def test_record_age_rescales_with_time(y, s, c):
    base = exact_age(Pair(y, s), DROPPING)
    scaled = exact_age(Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c)),
                       DROPPING)
    assert abs(scaled.value - c * base.value) <= 8.0 * EPS * scaled.value


# The pairs on which the lattice's extrapolation was measured against a
# prototype of the record; SE(2, 0.5)'s pmf folds the lattice at its
# shift.
COVERAGE_PAIRS = [
    (H2, Uniform(0.0, 2.0)), (H2, Rayleigh(1.0)),
    (Erlang(3, 3.0), Uniform(0.0, 2.0)),
    (Erlang(4, 1.0), ShiftedExponential(2.0, 0.5)),
    (Hyperexponential((0.99, 0.01), (5.0, 0.05)), Rayleigh(1.0))]
# D services, whose jump the levels put on every level.
JUMP_PAIRS = [(y, Deterministic(d))
              for y in (Erlang(2, 2.0), Erlang(3, 3.0), Erlang(2, 0.5), H2)
              for d in (0.3, 1.0, 2.5)]


@pytest.mark.parametrize("y,s", COVERAGE_PAIRS + JUMP_PAIRS,
                         ids=lambda v: v.describe())
def test_extrapolated_lattice_covers_the_record(y, s):
    # The lattice's extrapolated half-width is an estimate; against the
    # record (error of roundoff size) every extrapolated E[K], E[K^2],
    # crossing sum and age must lie within its half-width.  Each pair
    # takes its levels, and the worst margin over these pairs is 1.04e-2
    # of a half-width (Erlang(3, 3)/D(0.3)); 5.5e-3 without the D services
    # (Erlang(4, 1)/SE(2, 0.5)'s E[K^2]).
    pair = Pair(y, s)
    record, lattice = pair.cycles(DROPPING), pair.records(DROPPING)["lattice"]
    (*closed, middle), (*levels, estimated) = record.sums(), lattice.sums()
    ages = [pair.head + m.value + s.mean() for m in (middle, estimated)]
    pairs = [*zip(closed, levels),
             (analytic.Interval(ages[0], 0.0),
              analytic.Interval(ages[1], estimated.half_width))]
    for i, (exact, estimate) in enumerate(pairs):
        assert abs(estimate.value - exact.value) <= estimate.half_width, (
            i, exact, estimate)


# ---------------------------------------- one exponential phase: M/G/1/1

@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("s", ALL_KINDS, ids=lambda d: d.kind)
def test_one_phase_is_the_mg11_record_bit_for_bit(s, c):
    # Uniformized at its own rate one exponential phase is one jump a gap,
    # so u = 1 and the sums are closed forms: the M/G/1/1 record, with
    # Pr(K = k) = pi_{k-1} of the service, every half-width 0.
    lam, service = 1.3 / c, RESCALED[s.kind](s, c)
    m1, m2 = service.mean(), service.second_moment()
    record = Pair(Exponential(lam), service).cycles(DROPPING)
    assert record.path == "closed_form"
    assert list(record.sums()[:3]) == [
        (1.0 + lam * m1, 0.0), (1.0 + 3.0 * lam * m1 + lam * lam * m2, 0.0),
        (0.5 * lam * m2, 0.0)]
    pi, tail = service.poisson_mix(lam, K_MAX - 1)
    probs, rest = record.pmf(K_MAX)
    assert probs.value.tolist() == pi.tolist()
    assert probs.half_width.tolist() == [0.0] * K_MAX
    assert tuple(rest) == (tail[-1], 0.0)


@pytest.mark.parametrize("y", [Exponential(0.7), *GAPS], ids=lambda d: d.kind)
def test_each_phase_op_builds_only_the_transform_it_reads(y, monkeypatch):
    # One exponential phase takes no transform at all.  With more phases,
    # kpmf takes the power sums' two rfft calls and exact, E[K^2] and the
    # crossing sum the renewal kernel's two more, once.
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a: (calls.append(1),
                                                    rfft(*a))[1])
    pair = Pair(y, Rayleigh(1.0))
    k_pmf(pair, K_MAX)
    one = y.phases()[1][1] == (1,)
    assert len(calls) == (0 if one else 2)
    exact_age(pair, DROPPING)
    pair.cycles(DROPPING).sums()
    corollary_one(pair, DROPPING)
    mg11_ordering_bound(pair)
    assert len(calls) == (0 if one else 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rates", [(2.1e-113, 1.5e177), (1e-150, 1e160)],
                         ids=["square overflows", "ratio overflows"])
def test_rates_too_far_apart_decline_the_record(rates):
    # A service spans more than J's budget of jumps at the fast rate, so
    # the record declines, with no warning.  The mean gap is far longer
    # than the service's top, from which the lattice's levels step, so the
    # lattice serves, and its intervals meet the bracketing solve's.
    y = Hyperexponential((0.5, 0.5), rates)
    for s in (Deterministic(8e-56), Rayleigh(1.0)):
        records = Pair(y, s).records(DROPPING)
        assert "uniformized" not in records
        assert list(records) == ["lattice", "bracketing"]
        lattice, bracketing = map(quantities, records.values())
        for i, (u, v) in enumerate(zip(lattice, bracketing)):
            assert abs(u.value - v.value) <= (
                u.half_width + v.half_width), (s, i, u, v)
