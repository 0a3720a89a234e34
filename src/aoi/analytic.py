"""Exact average-age evaluation for both disciplines.

Every exact age here and every bound of :mod:`aoi.bounds` is a short
formula over one :class:`Pair` of laws, the interarrival Y and the service
S.  A pair validates itself when it is built and computes each primitive
at most once, on first use: the head E[Y^2]/(2 E[Y]); the success
probability p, the crossing term E[Y Pr(S > Y)] and the completed-service
term E[S | S <= Y], each an :class:`Interval` of value and quadrature
error (0 in closed form); and each discipline's cycle record.

Both disciplines have one age, :func:`exact_age`:

    E[Y^2]/(2 E[Y]) + (sum_k E[A_k * Pr(S > A_k)]) / E[K] + service term,

K the number of arrivals a cycle consumes, A_k the partial sum of the
first k-1 gaps of a cycle, and the service term E[S] under dropping and
E[S | S <= Y] under preemption.  :meth:`Pair.cycles` alone decides K's
law and returns its :class:`Cycles` record: the path that reached it and
an :class:`Interval` for each of E[K], E[K^2], the crossing sum and
Pr(K = k).  Each producer proves its own half-widths; the ages and bounds
only combine intervals.

Poisson arrivals (path ``closed_form``)
    Dropping with arrivals at rate lam drops Poisson(lam S) of them during
    a service S: E[K] = 1 + lam E[S], E[K^2] = 1 + 3 lam E[S] +
    lam^2 E[S^2] and the crossing sum is lam E[S^2]/2, the M/G/1/1 age
    (Inoue et al., IEEE Trans. Inf. Theory, 2019).  Pr(K = k) is the
    phase mix's below for a phase service, else the lattice's.

Geometric K (paths ``closed_form`` and ``quadrature``)
    Under preemption K is geometric in p = Pr(S <= Y).  Under dropping at
    other arrivals a service that is a mixture of exponential phases
    (``phases()`` is not None: the exponential and hyperexponential laws)
    has its phase drawn once per cycle, so K is geometric in
    p_i = 1 - L(r_i) with probability w_i (the phase's weight and rate, L
    the interarrival transform by its cancellation-free
    ``laplace_complement``).  E[K], E[K^2], Pr(K = k) and the crossing sum
    weigh the phases' 1/p_i, (2-p_i)/p_i^2, p_i (1-p_i)^(k-1) and
    c_i/p_i^2 by w_i, with c_i = E[Y exp(-r_i Y)] = M(r_i), the
    interarrival law's ``laplace_slope``.
    With a phase law on either side, preemption's three terms are closed
    forms in the other law's complement, slope M and remainder R at the
    phase rates, each phase an M/G or G/M pair: at a phase service
    p = sum_i w_i p_i, E[Y Pr(S > Y)] = sum_i w_i c_i and
    E[S; S <= Y] = sum_i w_i R_Y(r_i)/r_i; at phase arrivals (phase i of
    the gap law) p = sum_i w_i L_S(r_i), E[S; S <= Y] = sum_i w_i M_S(r_i)
    and E[Y Pr(S > Y)] = sum_i w_i R_S(r_i)/r_i.  Such a record integrates
    nothing and its path is ``closed_form``.  Otherwise each term is one
    quadrature of ``expect``, whose error is its 20- and 10-point rules'
    disagreement plus a roundoff floor, and the path is ``quadrature``.
    Each interval spans its values at the ends of the p brackets, p - err
    and min(p + err, 1), with the crossing terms' errors.  Dividing by p,
    not 1 - p, gives the M/M/1/1 age 1/lam + 1/mu.

Lattice (paths ``lattice`` and ``closed_form``)
    Dropping with any other pair integrates the service ccdf against U,
    the renewal measure of the gaps (an atom at 0 plus the renewal
    function): E[K] against U, the crossing sum against x dU, E[K^2]
    against 2 U*U - U, Pr(K > k) against convolution powers of the gap
    law.  The gaps are rounded down, and separately up, onto a lattice of
    step h = E[Y]/256 that ends where the service keeps at most 1e-13 of
    its mass, and u = delta + f*u is solved by an exponentially tilted
    FFT.  The services left here are bounded (D, U) or light-tailed (SE,
    R, Erlang), so that cut leaves under 1e-10 of E[S] and of E[S^2].
    Every lattice sum is one inner product of half spectra.  Two
    transforms of the n lattice points are each built only when read.
    The renewal transform gives E[K], E[K^2] and the crossing sum, once,
    on the smallest length 2^a, 3 2^a or 5 2^a at least 4n, where the tilt
    keeps both the wrapped mass and the roundoff gain small.  The pmf
    transform is built by each pmf call and then freed: Pr(K > k) takes
    the k-th power of the gap spectrum from a running product.  That power
    lives on [0, k(s-1)], s the gaps' support, so a call up to k_max reads
    only the first m = min(n, k_max (s-1) + 1) points, on the smallest
    such length at least 4m and 8 min(s, m): below n no power it reads can
    wrap at all, and at n the first 8 cannot.
    Rounding down shrinks every partial sum, so the two solves bracket
    E[K], E[K^2] and each Pr(S > T_k), and the intervals span them.
    x Pr(S > x) is not monotone, but a partial sum of k-1 gaps moves by at
    most (k-1) h, so each solve's crossing sum widened by h E[K(K-1)]/2
    brackets the true one.  Deterministic gaps give the sums in closed
    form up to the last lattice point t; past it the service ccdf G falls,
    so the left-out terms are bounded by the service's stop-loss
    E[(S-t)^+ ((S+t)/2 + E[Y])] (one ``expect``, skipped when G(t) = 0, as
    for bounded services), and Pr(K > k) there by G(t).

Nothing here samples.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Literal, NamedTuple

import numpy as np

from .distributions import (Deterministic, Distribution, Exponential,
                            check_pair, expect)
from .errors import TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Discipline

__all__ = [
    "Cycles",
    "Interval",
    "KPmf",
    "Pair",
    "exact_age",
    "k_pmf",
]

_LATTICE_STEPS = 256     # lattice points per mean gap
_MIN_STEPS = 16          # the coarsest lattice before a cycle is too deep
_MAX_LATTICE = 1 << 18   # lattice points per solve: bounds time and memory
_SERVICE_TAIL = 1e-13    # service mass left beyond the lattice
_TOP_STEPS = 64          # truncation points tried per octave
_SNAP = 1e-6             # a breakpoint this close, in steps, is on the lattice
_ALIAS_TILT = 1e-16      # tilt of the FFT's first aliased term


class Interval(NamedTuple):
    """A value and the half-width of the interval known to hold it; the
    fields may be arrays, one interval per element."""

    value: float
    half_width: float

    @classmethod
    def between(cls, a, b) -> Interval:
        """The interval from ``a`` to ``b``, in either order."""
        return cls(0.5 * (a + b), 0.5 * abs(a - b))

    def over(self, den: Interval) -> Interval:
        """self/den and the half-width of its range over both intervals,
        the far end's distance from the ratio taken in one quotient, free
        of cancellation; ``den``'s lower end must be positive."""
        ratio = self.value / den.value
        return Interval(ratio, (self.half_width + abs(ratio) * den.half_width)
                        / (den.value - den.half_width))


@dataclass(frozen=True)
class KPmf:
    """Distribution of K, each probability with its half-width."""

    pmf: tuple[Interval, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Interval         # Pr(K > k_max)
    k_max: int


class Cycles(NamedTuple):
    """K's law under one discipline, each quantity an interval its
    producer proved, and the path that reached them."""

    path: Literal["lattice", "closed_form", "quadrature"]
    moments: Callable[[], tuple[Interval, Interval]]  # E[K], E[K^2], on call
    crossing: Callable[[], Interval]  # sum_k E[A_k * Pr(S > A_k)], on call
    # k_max -> arrays of Pr(K = k), k = 1..k_max, and Pr(K > k_max)
    pmf: Callable[[int], tuple[Interval, Interval]]

    @property
    def k_mean(self) -> Interval:
        """E[K]."""
        return self.moments()[0]

    @property
    def k_second(self) -> Interval:
        """E[K^2]."""
        return self.moments()[1]


@dataclass(frozen=True)
class Pair:
    """A law pair the estimators can evaluate (else ``ValueError``) and
    the primitives its exact ages and bounds are built from, each computed
    at most once."""

    interarrival: Distribution
    service: Distribution

    def __post_init__(self):
        check_pair(self.interarrival, self.service)

    def to_dict(self) -> dict:
        """Both laws as JSON-ready dicts, keyed by their role."""
        return {"interarrival": self.interarrival.to_dict(),
                "service": self.service.to_dict()}

    @cached_property
    def head(self) -> float:
        """E[Y^2]/(2E[Y]), the first term of every age and bound."""
        return self.interarrival.second_moment() / (2.0 * self.interarrival.mean())

    @cached_property
    def p(self) -> Interval:
        """p = Pr(S <= Y) and its quadrature error, 0 in closed form at a
        phase law (:attr:`_by_phase`).  Ties count as successes, like the
        simulator's, and a p within its error of 0 is 0: rounding must not
        make an impossible completion possible."""
        if self._by_phase is not None:
            return Interval(min(self._phase_sum(0), 1.0), 0.0)
        mean_tail, err = expect(self.interarrival, self.service.ccdf,
                                extra_breakpoints=self.service.breakpoints())
        p = 1.0 - mean_tail
        return Interval(0.0 if p <= err else min(p, 1.0), err)

    @cached_property
    def _by_phase(self) -> tuple[tuple, list[tuple[float, float, float]]
                                 ] | None:
        """The phase weights w_i of the service, else of the gaps, else
        None, and given phase i the three terms p_i = Pr(S <= Y),
        c_i = E[Y Pr(S > Y)] and E[S; S <= Y], from the other law's
        Laplace descriptors (complement, slope M and remainder R) at the
        phase rate r_i.

        Service phases: p_i = 1 - L_Y(r_i), c_i = M_Y(r_i) and
        E[S; S <= Y] = R_Y(r_i)/r_i.  Gap phases: p_i = L_S(r_i),
        c_i = R_S(r_i)/r_i and E[S; S <= Y] = M_S(r_i)."""
        if (phases := self.service.phases()) is not None:
            y = self.interarrival
            return phases[0], [(y.laplace_complement(r), y.laplace_slope(r),
                                y.laplace_remainder(r) / r)
                               for r in phases[1]]
        if (phases := self.interarrival.phases()) is not None:
            s = self.service
            return phases[0], [(s.laplace(r), s.laplace_remainder(r) / r,
                                s.laplace_slope(r)) for r in phases[1]]
        return None

    def _phase_sum(self, i: int) -> float:
        """The w-weighted sum of the phases' i-th term."""
        w, terms = self._by_phase
        return sum(a * t[i] for a, t in zip(w, terms))

    @cached_property
    def crossing(self) -> Interval:
        """E[Y Pr(S > Y)] and its quadrature error, 0 at a phase law; over
        p^2, the crossing sum of a geometric K."""
        if self._by_phase is not None:
            return Interval(self._phase_sum(1), 0.0)
        return Interval(*expect(self.interarrival,
                                lambda y: y * self.service.ccdf(y),
                                extra_breakpoints=self.service.breakpoints()))

    @cached_property
    def completed_service(self) -> Interval:
        """E[S | the service completes] = E[S Pr(Y >= S)] / p over the
        brackets of both, the numerator in closed form at a phase law;
        raises :class:`ZeroSuccessProbability` when no service can
        complete."""
        if self.p.value <= 0.0:
            raise ZeroSuccessProbability(self._no_success())
        if self._by_phase is not None:
            return Interval(self._phase_sum(2), 0.0).over(self.p)
        return Interval(*expect(
            self.service, lambda s: s * self.interarrival.tail_inclusive(s),
            extra_breakpoints=self.interarrival.breakpoints())).over(self.p)

    def service_term(self, discipline: Discipline) -> Interval:
        """The age's last term: E[S] under dropping, E[S | S <= Y] under
        preemption."""
        if discipline is Discipline.PREEMPTION:
            return self.completed_service
        return Interval(self.service.mean(), 0.0)

    def cycles(self, discipline: Discipline) -> Cycles:
        """K's record under ``discipline``, on the module docstring's path."""
        if discipline is Discipline.PREEMPTION:
            return self._geometric_cycles(discipline, (1.0,), [self.p],
                                          lambda: [self.crossing])
        if isinstance(self.interarrival, Exponential):
            return self._poisson_cycles()
        return self._dropping

    @cached_property
    def _dropping(self) -> Cycles:
        """The phase mix's dropping record, else the lattice's."""
        if self.service.phases() is None:
            return _lattice_cycles(self.interarrival, self.service)
        w, terms = self._by_phase
        p, c = ([Interval(t[i], 0.0) for t in terms] for i in (0, 1))
        return self._geometric_cycles(Discipline.DROPPING, w, p, lambda: c)

    def _poisson_cycles(self) -> Cycles:
        """The dropping record at exponential arrivals: exact sums, which
        raise :class:`TruncationNotReached` when E[K^2] overflows."""
        lam, m1 = self.interarrival.rate, self.service.mean()
        m2 = self.service.second_moment()
        k_second = 1.0 + 3.0 * lam * m1 + lam * lam * m2

        def exact(value: float) -> Interval:
            if not math.isfinite(k_second):
                raise TruncationNotReached(
                    f"E[K^2] overflows: E[S^2] = {m2!r}, arrival rate {lam!r}")
            return Interval(value, 0.0)
        return Cycles("closed_form",
                      lambda: (exact(1.0 + lam * m1), exact(k_second)),
                      lambda: exact(0.5 * lam * m2),
                      lambda k_max: self._dropping.pmf(k_max))

    def _geometric_cycles(self, discipline: Discipline, w: tuple,
                          p: list[Interval], crossing: Callable) -> Cycles:
        """K geometric in p_i with probability w_i, from intervals of the
        p_i and c_i.  Where E[K^2] or the crossing sum, about 2/p_i^2 and
        E[Y]/p_i^2, could overflow, it raises :class:`ZeroSuccessProbability`
        under preemption, else :class:`TruncationNotReached`."""
        lo = [q.value - q.half_width for q in p]
        hi = [min(q.value + q.half_width, 1.0) for q in p]
        top = 2.0 * max(1.0, self.interarrival.mean())
        if min(lo) <= 0.0 or min(lo) ** 2 * sys.float_info.max < top:
            raise (ZeroSuccessProbability if discipline is Discipline.PREEMPTION
                   else TruncationNotReached)(self._no_success())
        mix = lambda terms: sum(a * b for a, b in zip(w, terms))

        def crossing_sum() -> Interval:
            c = crossing()
            return Interval.between(
                mix((v + e) / q**2 for (v, e), q in zip(c, lo)),
                mix((v - e) / q**2 for (v, e), q in zip(c, hi)))

        def pmf(k_max: int) -> tuple[Interval, Interval]:
            # p (1-p)^(k-1) grows with its first factor, falls with its second
            k = np.arange(k_max + 1.0)
            down, up = ([(1.0 - q) ** k for q in end] for end in (lo, hi))
            return (Interval.between(mix(q * u[:-1] for q, u in zip(lo, up)),
                                     mix(q * d[:-1] for q, d in zip(hi, down))),
                    Interval.between(mix(d[-1] for d in down),
                                     mix(u[-1] for u in up)))
        moments = tuple(Interval.between(mix(map(f, lo)), mix(map(f, hi)))
                        for f in (lambda q: 1.0 / q, lambda q: (2 - q) / q**2))
        return Cycles("quadrature" if self._by_phase is None else "closed_form",
                      lambda: moments, crossing_sum, pmf)

    def _no_success(self) -> str:
        return (f"Pr(success) = {self.p.value:.4g} for interarrival "
                f"{self.interarrival.describe()} "
                f"vs service {self.service.describe()}")


def _truncation_point(service: Distribution) -> float:
    """The end of a bounded support, else the first point E[S] 2^(j/64),
    j an integer, where Pr(S > x) <= 1e-13: at most 1.1% past the exact
    quantile, and in units of E[S], so it rescales with time.

    The octave comes from doubling or halving E[S], the 1/64ths of it from
    one array call of the ccdf.  A tail that reaches past the float range
    raises :class:`TruncationNotReached`.
    """
    hi = service.support()[1]
    if math.isfinite(hi):
        return hi
    x = service.mean()
    while service.ccdf(x) > _SERVICE_TAIL:
        x *= 2.0
    if math.isinf(x):
        raise TruncationNotReached(
            f"the tail of {service.describe()} reaches past the float range")
    while service.ccdf(0.5 * x) <= _SERVICE_TAIL:
        x *= 0.5
    tries = 0.5 * x * np.exp2(np.arange(1, _TOP_STEPS + 1) / _TOP_STEPS)
    return float(tries[np.argmax(service.ccdf(tries) <= _SERVICE_TAIL)])


def _lattice_cycles(interarrival: Distribution, service: Distribution
                    ) -> Cycles:
    """The dropping record spanning the sums with every gap rounded down,
    then up, to the lattice jh, h = E[Y]/m, up to :func:`_truncation_point`.

    m halves from 256 until at most 2^18 points remain; below 16 the cycle
    is too deep (:class:`TruncationNotReached`).  A service breakpoint
    within rounding of a lattice point (the D value, the SE shift) is
    evaluated there exactly, keeping its tie rule at every time scale.
    The record keeps the gap cells and the service ccdf; E[K], E[K^2] and
    the crossing sum come from one renewal solve on first read, and each
    pmf call builds its own transform and frees it.
    """
    top = _truncation_point(service)
    point_mass = isinstance(interarrival, Deterministic)
    m = 1 if point_mass else _LATTICE_STEPS
    while True:
        h = interarrival.mean() / m
        steps = top / h  # inf when the cycle outgrows the float range
        if steps < _MAX_LATTICE - 1:
            break
        if m <= _MIN_STEPS:
            raise TruncationNotReached(
                f"a cycle spans {steps:.4g} lattice steps, more than "
                f"{_MAX_LATTICE}; the expected arrivals-per-cycle count is "
                "too large to resolve")
        m //= 2
    n = int(steps) + 2
    grid = h * np.arange(n + 1)
    x = grid[:n].copy()
    for b in service.breakpoints():
        j = round(b / h)
        if j < n and abs(x[j] - b) <= _SNAP * h:
            x[j] = b
    c = service.ccdf(x)
    first = 1.0 - float(c[0])  # Pr(K >= 1) = 1 whatever the service
    if point_mass:  # U has one atom per lattice point; T_k = k E[Y]
        path = "closed_form"

        @cache
        def solved() -> tuple[Interval, Interval, Interval]:
            # Pr(S > x) falls, so it is 0 past a last point where it is 0.
            beyond = (_beyond_top(service, float(x[-1]), h) if c[-1]
                      else (0.0,) * 3)
            return (Interval(float(first + c.sum()), beyond[0]),
                    Interval(float(first + (2.0 * np.arange(n) + 1.0) @ c),
                             beyond[1]),
                    Interval(float(x @ c), beyond[2]))

        def survival(k_max: int) -> tuple[np.ndarray, np.ndarray]:
            # Pr(K > k) = Pr(S > k E[Y]) <= c[-1] past the last point
            kept = np.concatenate(([1.0], c[1:], np.zeros(k_max)))[:k_max + 1]
            beyond = np.zeros(k_max + 1)
            beyond[n:] = c[-1]
            return kept - beyond, kept + beyond
    else:
        path = "lattice"
        tail = interarrival.ccdf(grid)
        cell = tail[:-1] - tail[1:]  # Pr(jh < Y <= (j+1)h)
        gaps = cell, np.append(0.0, cell[:-1])  # rounded down, up
        survival = lambda k_max: _survival(gaps, c, k_max)

        @cache
        def solved() -> tuple[Interval, Interval, Interval]:
            (k_down, k2_down, c_down), (k_up, k2_up, c_up) = _renewal_sums(
                gaps, x, c, first)
            # A partial sum of k-1 gaps moves by at most (k-1) h, so each
            # end's crossing sum widened by h E[K(K-1)]/2 brackets the
            # true one.
            lo = c_up - 0.5 * h * (k2_up - k_up)
            hi = c_down + 0.5 * h * (k2_down - k_down)
            mid = 0.5 * (c_down + c_up)
            return (Interval.between(k_down, k_up),
                    Interval.between(k2_down, k2_up),
                    Interval(mid, max(mid - lo, hi - mid)))

    def pmf(k_max: int) -> tuple[Interval, Interval]:
        # Pr(K = k) = Pr(K > k-1) - Pr(K > k), the half-widths added
        mid, hw = Interval.between(*survival(k_max))
        return (Interval(mid[:-1] - mid[1:], hw[:-1] + hw[1:]),
                Interval(mid[-1], hw[-1]))
    return Cycles(path, lambda: solved()[:2], lambda: solved()[2], pmf)


def _beyond_top(service: Distribution, t: float, d: float
                ) -> tuple[float, float, float]:
    """Bounds on the terms G(jd), (2j+1) G(jd) and jd G(jd), jd > t, that
    the D-arrival sums of E[K], E[K^2] and the crossing sum leave out past
    their last point t = (n-1) d, G the service ccdf.

    G falls, so each term is at most the mean of G(x), (2x+3d) G(x)/d or
    (x+d) G(x) over the step before it.  The service's stop-loss beyond t
    B = int_t^inf (x+d) G(x) dx = E[(S-t)^+ ((S+t)/2 + d)], integrated with
    its error added, bounds all three: int_t^inf G <= B/(t+d) gives
    B/((t+d) d), 2B/d^2 + B/((t+d) d) and B/d, for any service law.
    Past t, where G is at most 1e-13, it falls on a scale of about t/60
    (Gaussian tails) to t/30 (exponential ones), so the panels are cut at
    t (1 + 2^-k), k = 0..6, where one round of rules settles them."""
    cuts = (t, *(t * (1.0 + 0.5 ** k) for k in range(7)))
    value, err = expect(service, lambda s: np.maximum(s - t, 0.0)
                        * (0.5 * (s + t) + d), extra_breakpoints=cuts)
    b = (value + err) / d
    k_mean = b / (t + d)
    return k_mean, 2.0 * b / d + k_mean, b


def _fft_size(n: int) -> int:
    """The smallest 2^a, 3 2^a or 5 2^a at least ``n``: a length the FFT
    factors into radices 2 and 3 or 5, under 4n/3, where the next power of
    two can reach 2n."""
    return min(r << (-(-n // r) - 1).bit_length() for r in (1, 3, 5))


def _tilted(n: int, size: int):
    """``weigh`` and ``spectrum`` of the tilted FFT of length ``size`` over
    ``n`` lattice points.

    Tilting a gap law by rho^j, rho^(size+n) = _ALIAS_TILT, makes the mass
    a circular convolution wraps into the first n points at most
    rho^size <= 1e-16^(4/5) of it for size >= 4n, and the roundoff the
    untilting 1/rho^j multiplies at most rho^-n <= 1e16^(1/5) = 1585.  A
    lattice sum is then an inner product of half spectra (Parseval): one
    ``vdot`` of a spectrum against ``weigh`` of c or of x c.
    """
    tilt = np.exp(np.arange(n) * (math.log(_ALIAS_TILT) / (size + n)))

    def weigh(w):
        out = np.fft.rfft(w / tilt, size) * (2.0 / size)
        out[[0, -1]] *= 0.5  # the half spectrum holds these bins once
        return out

    return weigh, lambda f: np.fft.rfft(f * tilt, size)


def _total(weights, spectrum) -> float:
    return float(np.vdot(weights, spectrum).real)


def _renewal_sums(gaps, x: np.ndarray, c: np.ndarray, first: float
                  ) -> list[tuple[float, float, float]]:
    """E[K], E[K^2] and the crossing sum for each gap lattice of ``gaps``,
    from the renewal measure u = delta + f*u against the service ccdf
    ``c`` at the lattice points ``x``, on the smallest FFT length >= 4n."""
    weigh, spectrum = _tilted(x.size, _fft_size(4 * x.size))
    by_c, by_xc = weigh(c), weigh(x * c)

    def sums(f):
        renewal = 1.0 / (1.0 - spectrum(f))  # u = delta + f*u
        return (first + _total(by_c, renewal),
                first + _total(by_c, renewal * (2.0 * renewal - 1.0)),
                _total(by_xc, renewal))
    return [sums(f) for f in gaps]


def _survival(gaps, c: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Pr(K > k), k = 0..k_max, for each gap lattice of ``gaps``: the k-th
    convolution power, its spectrum a running product, against ``c``.

    With s one past the last non-zero rounded-up gap, the k-th power lives
    on [0, k(s-1)], so the sums read only the first
    m = min(n, max(1, k_max (s-1) + 1)) points of ``c`` and of the gaps.
    The length is the smallest FFT length >= max(4m, 8 min(s, m)): when
    m < n no power up to k_max reaches past m, so none wraps at all; else
    the first 8 powers never wrap, and later ones wrap only their
    tilted-away far tail."""
    s = np.trim_zeros(gaps[-1], "b").size
    m = min(c.size, max(1, k_max * (s - 1) + 1))
    weigh, spectrum = _tilted(m, _fft_size(max(4 * m, 8 * min(s, m))))
    by_c = weigh(c[:m])

    def powers(f):
        step, out = spectrum(f[:m]), np.ones(k_max + 1)
        power = np.ones_like(step)
        for k in range(1, k_max + 1):
            power *= step
            out[k] = _total(by_c, power)
        return out
    return [powers(f) for f in gaps]


def exact_age(pair: Pair, discipline: Discipline) -> AgeEstimate:
    """Average age under ``discipline``: the head, the record's crossing
    sum over its E[K], and the service term, each half-width added;
    ``cycles_used`` is 0 and ``method`` the record's path."""
    cycles = pair.cycles(discipline)
    middle = cycles.crossing().over(cycles.k_mean)
    service = pair.service_term(discipline)
    return AgeEstimate(value=pair.head + middle.value + service.value,
                       ci_half_width=middle.half_width + service.half_width,
                       cycles_used=0, method=cycles.path)


def k_pmf(pair: Pair, k_max: int) -> KPmf:
    """Pmf of K under dropping up to ``k_max`` plus the remaining tail
    mass, from the dropping record."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    pmf, tail = pair.cycles(Discipline.DROPPING).pmf(k_max)
    return KPmf(tuple(Interval(float(v), float(e)) for v, e in zip(*pmf)),
                Interval(float(tail.value), float(tail.half_width)), k_max)
