"""Reference oracle for the lattice records of ``aoi.analytic``: a direct
solve on a lattice of its own, 512 points per mean gap, eight times finer
than the library's finest level.

It reads the two laws through their public ``ccdf`` and ``support()``
only, and shares no code with the library's solve.  The step is the
largest b/j at most E[Y]/512 that puts every finite positive end of
either law's support on a point.  The gaps are rounded down, and
separately up, onto it; the down end reads Pr(S > x), the up end
Pr(S >= x), which differs from it only at a point mass's value.  A
one-point gap law lies on the lattice and is not rounded.  Each end solves
u = delta + f*u block by block, with w = u*u (:func:`renewal`), and takes
the convolution powers f^{*k} (:func:`pmf`), every convolution linear:

    E[K] = 1 - G_0 + sum u_l G_l,   E[K^2] = 1 - G_0 + sum (2w - u)_l G_l,
    crossing sum = sum u_l x_l G_l,  Pr(K > k) = sum f^{*k}_l G_l, k >= 1,

G that end's service ccdf on the points.  The two ends bracket each sum,
and their midpoint errs in h^2 where every kink lies on the lattice; the
crossing sum's bracket is widened by h E[K(K-1)]/2, as a partial sum of
k - 1 gaps moves by at most (k - 1) h.  The lattice ends where the service
keeps at most 1e-16 of its mass, and the gap cells stop where the gaps
keep 1e-22.  The solve runs in doubles: on six of the pairs tested here
its sums kept within 12 eps of the renewal recursion in long doubles, and
each half-width carries 256 eps of its value for that.  Each Pr(K > k)
carries its FFTs' roundoff bound.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from aoi.analytic import Interval
from aoi.distributions import Distribution

STEPS = 512          # points per mean gap, at most
SERVICE_TAIL = 1e-16  # service mass past the last point
GAP_TAIL = 1e-22     # gap mass past the last cell
BLOCK = 256          # points per block of the renewal solve
EPS = np.finfo(float).eps
ROUNDOFF = 256 * EPS  # relative, of each sum: 20 times the most measured


class Sums(NamedTuple):
    """The bracketed sums, each an :class:`Interval` over both ends."""

    k_mean: Interval
    k_second: Interval
    crossing: Interval
    middle: Interval       # the crossing sum over E[K]
    age: Interval          # E[Y^2]/(2 E[Y]) + middle + E[S]

    def record(self) -> list[Interval]:
        """E[K], E[K^2], the crossing sum and the middle term, in the
        order of a record's ``sums()``."""
        return list(self[:4])


class Lattice(NamedTuple):
    """Both ends' gap cells and service ccdf on the points x of step h."""

    h: float
    x: np.ndarray
    ends: list  # (f, G) of the down end, then of the up end


def kinks(*laws: Distribution) -> list[float]:
    """Every finite positive end of the laws' supports."""
    return sorted({b for law in laws for b in law.support()
                   if 0.0 < b < math.inf})


def step(y: Distribution, s: Distribution) -> float:
    """The largest b/j at most E[Y]/512, b the largest kink, that puts
    every kink within 1e-9 of a point; E[Y]/512 with no kink or none
    found by 64 times the first j."""
    h = y.mean() / STEPS
    ends = kinks(y, s)
    if not ends:
        return h
    b = ends[-1]
    first = math.ceil(b / h)
    for j in range(first, 64 * first):
        at = [k * j / b for k in ends]
        if all(round(a) >= 1 and abs(a - round(a)) <= 1e-9 * a for a in at):
            return b / j
    return h


def last_point(s: Distribution) -> float:
    """The end of a bounded support, else a point past which the service
    keeps at most 1e-16 of its mass."""
    top = s.support()[1]
    if math.isfinite(top):
        return top
    x = s.mean()
    while s.ccdf(x) > SERVICE_TAIL:
        x *= 1.25
    return x


def points(h: float, n: int, *laws: Distribution) -> np.ndarray:
    """jh, j < n, with each kink of ``laws`` put exactly on its point."""
    x = h * np.arange(n)
    for b in kinks(*laws):
        j = round(b / h)
        if j < n:
            x[j] = b
    return x


@cache
def lattice(y: Distribution, s: Distribution) -> Lattice:
    """The reference lattice of ``y`` gaps against ``s`` service."""
    h = step(y, s)
    n = int(last_point(s) / h) + 2
    x = points(h, n, y, s)
    down = s.ccdf(x)
    up = down.copy()
    lo, hi = s.support()
    if lo == hi:  # Pr(S >= v) = Pr(S > v) + 1 at a point mass v
        up[x == lo] += 1
    d, end = y.support()
    if d == end:  # on the lattice: both ends exact
        f = np.zeros(round(d / h) + 1)
        f[-1] = 1
        return Lattice(h, x, [(f, down), (f, down)])
    tail = y.ccdf(points(h, n + 1, y))
    cells = tail[:-1] - tail[1:]
    cells = cells[:np.flatnonzero(tail[:-1] > GAP_TAIL)[-1] + 1]
    return Lattice(h, x, [(cells, down),
                          (np.concatenate(([0], cells))[:n], up)])


def renewal(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """u = delta + f*u on n points, block by block, and w = u*u.  The
    first block runs the recursion.  Every later block solves
    (I - T/(1 - f_0)) u_B = r, T the block's strictly lower Toeplitz
    matrix of f and r what the points before the block give through f, by
    the lower Toeplitz matrix of the first block's u (1 - f_0), the same
    series.  The points before a block reach it by divide and conquer:
    each half's convolution with f is added to the second half (online
    convolution).  Every convolution is by FFTs of a length past both
    operands' reach, where what wraps lands on points not read, so the
    work is O(n log^2 n)."""
    scale, taps = 1 / (1 - f[0]), f[1:n]
    u, reach = np.zeros(n), np.zeros(n)  # reach: sum_i f_i u_(l-i)
    u[0] = scale
    for l in range(1, min(BLOCK, n)):
        u[l] = (taps[:l] @ u[l - 1::-1][:taps.size]) * scale
    side = min(BLOCK, n)
    lower = np.subtract.outer(np.arange(side), np.arange(side))
    solve = np.where(lower >= 0, u[np.abs(lower)] / scale, 0.0)

    @cache
    def spectrum(length, size):
        return np.fft.rfft(taps[:length], size)

    def spread(lo, mid, hi):  # u[lo:mid] through f onto reach[mid:hi]
        lo, hi = max(lo, mid - taps.size), min(hi, mid + taps.size)
        size = 1 << (hi - lo - 1).bit_length()
        reach[mid:hi] += np.fft.irfft(
            np.fft.rfft(u[lo:mid], size) * spectrum(hi - lo - 1, size),
            size)[mid - lo - 1:hi - lo - 1]

    def solved(lo, hi):  # reach[lo:hi] holds every point before lo
        if hi - lo <= BLOCK:
            if lo:
                u[lo:hi] = solve[:hi - lo, :hi - lo] @ (scale * reach[lo:hi])
            return
        mid = lo + BLOCK * -(-(hi - lo) // (2 * BLOCK))
        solved(lo, mid)
        spread(lo, mid, hi)
        solved(mid, hi)
    solved(0, n)
    size = 1 << (2 * n - 1).bit_length()
    return u, np.fft.irfft(np.fft.rfft(u, size) ** 2, size)[:n]


def widened(interval: Interval) -> Interval:
    """``interval`` with the roundoff of its doubles added."""
    return Interval(interval.value,
                    interval.half_width + ROUNDOFF * abs(interval.value))


@cache
def sums(y: Distribution, s: Distribution) -> Sums:
    """E[K], E[K^2], the crossing sum, its quotient by E[K] and the age,
    each bracketed by the two ends."""
    grid = lattice(y, s)
    ends = []
    for f, g in grid.ends:
        u, w = renewal(f, g.size)
        first = 1 - g[0]
        ends.append([float(v) for v in (first + u @ g,
                                        first + (2 * w - u) @ g,
                                        u @ (grid.x * g))])
    (k1_down, k2_down, c_down), (k1_up, k2_up, c_up) = ends
    k_mean = widened(Interval.between(k1_down, k1_up))
    lo = min(c_up - 0.5 * grid.h * max(k2_up - k1_up, 0.0), c_down)
    hi = max(c_down + 0.5 * grid.h * max(k2_down - k1_down, 0.0), c_up)
    mid = 0.5 * (c_down + c_up)
    crossing = widened(Interval(mid, max(mid - lo, hi - mid)))
    middle = crossing.over(k_mean)
    head = y.second_moment() / (2.0 * y.mean())
    return Sums(k_mean, widened(Interval.between(k2_down, k2_up)),
                crossing, middle,
                Interval(head + middle.value + s.mean(), middle.half_width))


@cache
def pmf(y: Distribution, s: Distribution, k_max: int
        ) -> tuple[Interval, Interval]:
    """Arrays of Pr(K = k), k = 1..k_max, and Pr(K > k_max), each
    bracketed by the two ends.  Each power is the last one's linear
    convolution with f, by FFTs zero-padded past both lengths, so none
    wraps, on the points a k_max-th power can reach; each end of Pr(K > k)
    is widened by k log2(N) eps times max G, the FFTs' roundoff."""
    survival = []
    for f, g in lattice(y, s).ends:
        g = g[:min(g.size, k_max * (f.size - 1) + 1)]
        size = 1 << (g.size + f.size).bit_length()
        cells, power, ends = np.fft.rfft(f, size), np.ones(1), [1.0]
        for _ in range(k_max):
            power = np.fft.irfft(np.fft.rfft(power, size) * cells,
                                 size)[:g.size]
            ends.append(power @ g)
        noise = np.arange(k_max + 1.0) * math.log2(size) * EPS * g.max()
        survival.append((np.array(ends) - noise, np.array(ends) + noise))
    ends = np.array(survival)
    mid, hw = Interval.between(ends[:, 0].min(0), ends[:, 1].max(0))
    return (Interval(mid[:-1] - mid[1:], hw[:-1] + hw[1:]),
            Interval(mid[-1], hw[-1]))
