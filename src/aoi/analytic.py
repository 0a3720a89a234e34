"""Exact average-age evaluation for both disciplines.

Every exact age here and every bound of :mod:`aoi.bounds` is a short
formula over one :class:`Pair` of laws, the interarrival Y and the service
S.  A pair validates itself when it is built and computes each primitive
at most once, on first use: the head E[Y^2]/(2 E[Y]); the success
probability p, the crossing term E[Y Pr(S > Y)] and the completed-service
term E[S | S <= Y], each an :class:`Interval` of value and quadrature
error; and each discipline's cycle record.

Both disciplines have one age, :func:`exact_age`:

    E[Y^2]/(2 E[Y]) + (sum_k E[A_k * Pr(S > A_k)]) / E[K] + service term,

K the number of arrivals a cycle consumes, A_k the partial sum of the
first k-1 gaps of a cycle, and the service term E[S] under dropping and
E[S | S <= Y] under preemption.  :meth:`Pair.cycles` alone decides K's
law and returns its record: E[K], E[K^2], Pr(K > k) and the crossing sum
as a (down, up) bracket, the step h by which the gaps were moved, and the
path that reached them.

Geometric K (path ``quadrature``)
    Under preemption, and under dropping with exponential service,
    E[K] = 1/p, E[K^2] = (2-p)/p^2, Pr(K > k) = (1-p)^k and the crossing
    sum is E[Y Pr(S > Y)]/p^2, integrated only when an age reads it.  p is
    1 - L(mu) for exponential service (L the Laplace transform of the
    interarrival law), else the panel quadrature of
    :func:`~aoi.distributions.expect`, whose error estimate is the summed
    disagreement of its 20- and 10-point rules plus a roundoff floor.  The
    ends sit at the ends of p's bracket, p - err and min(p + err, 1), the
    crossing error added at the down end and taken off at the up end, so
    every quadrature error lands in the half-width.  Dividing by p, not by
    E[Pr(S > Y)] = 1 - p, reproduces the M/M/1/1 preemptive age
    1/lambda + 1/mu and agrees with simulation.

Lattice (paths ``lattice`` and ``closed_form``)
    Dropping with any other service law integrates the service ccdf
    against U, the renewal measure of the gaps (an atom at 0 plus the
    renewal function): E[K] against U, the crossing sum against x dU,
    E[K^2] against 2 U*U - U, Pr(K = k) against convolution powers of the
    gap law.  The gaps are rounded down, and separately up, onto a lattice
    of step h = E[Y]/256 that ends where the service keeps at most 1e-13
    of its mass, and u = delta + f*u is solved by an exponentially tilted
    FFT.  Rounding down shrinks every partial sum, so the two solves
    bracket E[K], E[K^2] and each Pr(S > T_k); results are their
    midpoints, with half-widths spanning the brackets.  x Pr(S > x) is not
    monotone, but a partial sum of k-1 gaps moves by at most (k-1) h, so
    each solve's crossing sum widened by h E[K(K-1)]/2 brackets the true
    one; the age's half-width reaches the far end of that bracket over
    the one of E[K].  Deterministic gaps give the exact sums in closed
    form.

Nothing here samples; the CLI and the sweep spec validate
:class:`EstimatorOptions`, but no estimator reads it.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, NamedTuple

import numpy as np

from .distributions import (Deterministic, Distribution, Exponential,
                            check_pair, expect)
from .errors import TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Discipline

__all__ = [
    "EstimatorOptions",
    "DEFAULT_OPTIONS",
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


@dataclass(frozen=True)
class EstimatorOptions:
    """Replicate count and seed; validated, but read by no estimator."""

    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 10_000:
            raise ValueError(f"mc_samples must be >= 10000, got {self.mc_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


DEFAULT_OPTIONS = EstimatorOptions()


class Interval(NamedTuple):
    """A value and the half-width of the interval known to hold it."""

    value: float
    half_width: float

    def over(self, den: Interval) -> Interval:
        """self/den and the half-width of its range over both intervals.
        ``den`` is an E[K] bracket, whose lower end is >= 1."""
        ratio = self.value / den.value
        return Interval(ratio, max(
            (self.value + self.half_width) / (den.value - den.half_width) - ratio,
            ratio - (self.value - self.half_width) / (den.value + den.half_width)))


@dataclass(frozen=True)
class KPmf:
    """Distribution of K, each probability with its half-width."""

    pmf: tuple[Interval, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Interval         # Pr(K > k_max)
    k_max: int


class _Solve(NamedTuple):
    """The cycle sums of one end of a discipline's record."""

    path: Literal["lattice", "closed_form", "quadrature"]
    step: float          # h, the most a gap was moved by (0: none was)
    k_mean: float        # E[K]
    crossing: Callable[[], float]  # sum_k E[A_k * Pr(S > A_k)], on call
    k_second: float      # E[K^2]
    survival: Callable[[int], np.ndarray]  # k_max -> Pr(K > k), k = 0..k_max
    hazard: float = 0.0  # p of a geometric K: Pr(K = k) = p Pr(K > k-1)


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
        """p = Pr(S <= Y) = 1 - E[Pr(S > Y)] and its quadrature error.

        Exponential service has the closed form 1 - L(mu), error 0.
        Otherwise ties count as successes, matching the simulator's
        completion-first rule, and a p within its error of 0 is 0: rounding
        must not turn an impossible completion into a tiny positive chance.
        """
        if isinstance(self.service, Exponential):
            return Interval(1.0 - self.interarrival.laplace(self.service.rate), 0.0)
        mean_tail, err = expect(self.interarrival, self.service.ccdf,
                                extra_breakpoints=self.service.breakpoints())
        p = 1.0 - mean_tail
        return Interval(0.0 if p <= err else min(p, 1.0), err)

    @cached_property
    def crossing(self) -> Interval:
        """E[Y Pr(S > Y)] and its quadrature error; over p^2, the crossing
        sum of a geometric K."""
        return Interval(*expect(self.interarrival,
                                lambda y: y * self.service.ccdf(y),
                                extra_breakpoints=self.service.breakpoints()))

    @cached_property
    def completed_service(self) -> Interval:
        """E[S | the service completes] = E[S Pr(Y >= S)] / p, its error that
        of the numerator plus the one p contributes; raises
        :class:`ZeroSuccessProbability` when no service can complete."""
        p = self.p
        if p.value <= 0.0:
            raise ZeroSuccessProbability(self._no_success())
        num, err = expect(self.service,
                          lambda s: s * self.interarrival.tail_inclusive(s),
                          extra_breakpoints=self.interarrival.breakpoints())
        value = num / p.value
        return Interval(value, (err + value * p.half_width) / p.value)

    def service_term(self, discipline: Discipline) -> Interval:
        """The age's last term: E[S] under dropping, E[S | S <= Y] under
        preemption."""
        if discipline is Discipline.PREEMPTION:
            return self.completed_service
        return Interval(self.service.mean(), 0.0)

    @cached_property
    def lattice(self) -> tuple[_Solve, _Solve]:
        """The dropping sums with the gaps rounded down, then up."""
        return _lattice_solves(self.interarrival, self.service)

    def cycles(self, discipline: Discipline) -> tuple[_Solve, _Solve]:
        """The (down, up) record of K under ``discipline``: the lattice
        solves for dropping with non-exponential service, else the record
        of a geometric K at the ends of p's bracket, whose E[K] = 1/p
        diverges at p = 0 (:class:`ZeroSuccessProbability` under
        preemption, :class:`TruncationNotReached` under dropping)."""
        if (discipline is Discipline.DROPPING
                and not isinstance(self.service, Exponential)):
            return self.lattice
        p = self.p
        if p.value <= 0.0:
            raise (ZeroSuccessProbability if discipline is Discipline.PREEMPTION
                   else TruncationNotReached)(self._no_success())

        def end(q: float, sign: float) -> _Solve:
            return _Solve("quadrature", 0.0, 1.0 / q,
                          lambda: (self.crossing.value
                                   + sign * self.crossing.half_width) / q**2,
                          (2.0 - q) / q**2,
                          lambda k_max: (1.0 - q) ** np.arange(k_max + 1.0), q)
        return (end(p.value - p.half_width, 1.0),
                end(min(p.value + p.half_width, 1.0), -1.0))

    def k_moments(self, discipline: Discipline) -> tuple[Interval, Interval]:
        """(E[K], E[K^2]) under ``discipline``: the record's midpoints and
        half-widths."""
        down, up = self.cycles(discipline)
        return (_midpoint(down.k_mean, up.k_mean),
                _midpoint(down.k_second, up.k_second))

    def _no_success(self) -> str:
        return (f"Pr(success) = 0 for interarrival {self.interarrival.describe()} "
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


def _lattice_solves(interarrival: Distribution, service: Distribution
                    ) -> tuple[_Solve, _Solve]:
    """The dropping sums with every gap rounded down, then up, to the
    lattice jh, h = E[Y]/m, up to :func:`_truncation_point`.

    m halves from 256 until at most 2^18 points remain; below 16 the cycle
    is too deep (:class:`TruncationNotReached`).  A service breakpoint
    within rounding of a lattice point (the D value, the SE shift) is
    evaluated there exactly, keeping its tie rule at every time scale.
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
        solve = _Solve("closed_form", 0.0, float(first + c.sum()),
                       lambda crossing=float(x @ c): crossing,
                       float(first + (2.0 * np.arange(n) + 1.0) @ c),
                       lambda k_max: np.concatenate(
                           ([1.0], c[1:], np.zeros(k_max)))[:k_max + 1])
        return solve, solve
    tail = interarrival.ccdf(grid)
    cell = tail[:-1] - tail[1:]  # Pr(jh < Y <= (j+1)h)
    # Tilting by rho^j, rho^(size+n) = _ALIAS_TILT, makes the mass wrapped
    # around by the circular convolution negligible; each lattice sum is
    # an inner product of half spectra (Parseval), weights in ``against``.
    size = 1 << (4 * n - 1).bit_length()
    tilt = np.exp(np.arange(n) * (math.log(_ALIAS_TILT) / (size + n)))
    fold = np.full(size // 2 + 1, 2.0 / size)
    fold[[0, -1]] = 1.0 / size
    against_c, against_xc = (fold * np.conj(np.fft.rfft(w / tilt, size))
                             for w in (c, x * c))

    def total(spectrum, against):
        return float((spectrum * against).real.sum())

    solves = []
    for f in (cell, np.append(0.0, cell[:-1])):  # gaps rounded down, then up
        spectrum = np.fft.rfft(f * tilt, size)
        renewal = 1.0 / (1.0 - spectrum)  # u = delta + f*u
        solves.append(_Solve(
            "lattice", h, first + total(renewal, against_c),
            lambda crossing=total(renewal, against_xc): crossing,
            first + total(renewal * (2.0 * renewal - 1.0), against_c),
            lambda k_max, spectrum=spectrum: np.array(
                [1.0] + [total(spectrum**k, against_c)
                         for k in range(1, k_max + 1)])))
    return solves[0], solves[1]


def _midpoint(a, b) -> Interval:
    """The midpoint of a bracket and its half-width."""
    return Interval(0.5 * (a + b), 0.5 * abs(a - b))


def exact_age(pair: Pair, discipline: Discipline) -> AgeEstimate:
    """Average age under ``discipline``; ``cycles_used`` is 0 and
    ``method`` the record's path.

    Divides the midpoint of the record's crossing sums by that of E[K].
    Moving each gap by at most h moves A_k by at most (k-1) h, so the
    crossing sum lies in [C_up - h E_up[K(K-1)]/2, C_down + h E_down[K(K-1)]/2]
    and E[K] in [E_up[K], E_down[K]]; the half-width reaches the far end of
    the ratio's bracket, plus the service term's error.
    """
    down, up = pair.cycles(discipline)
    service = pair.service_term(discipline)
    c_down, c_up = down.crossing(), up.crossing()
    middle = (c_down + c_up) / (down.k_mean + up.k_mean)
    lo = c_up - 0.5 * up.step * (up.k_second - up.k_mean)
    hi = c_down + 0.5 * down.step * (down.k_second - down.k_mean)
    hw = max(middle - lo / down.k_mean, hi / up.k_mean - middle)
    return AgeEstimate(value=pair.head + middle + service.value,
                       ci_half_width=hw + service.half_width, cycles_used=0,
                       method=down.path)


def k_pmf(pair: Pair, k_max: int) -> KPmf:
    """Pmf of K under dropping up to ``k_max`` plus the remaining tail mass,
    from the dropping record: p (1-p)^(k-1) for a geometric K (exponential
    service, half-width 0), else Pr(K > k-1) - Pr(K > k)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    down, up = pair.cycles(Discipline.DROPPING)
    mid, hw = _midpoint(down.survival(k_max), up.survival(k_max))
    pmf = zip(down.hazard * mid[:-1] if down.hazard else mid[:-1] - mid[1:],
              hw[:-1] + hw[1:])
    tail = Interval(float(mid[-1]), float(hw[-1]))
    return KPmf(tuple(Interval(float(v), float(e)) for v, e in pmf), tail, k_max)
