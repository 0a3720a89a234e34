"""Exact average-age evaluation for both disciplines.

Dropping
    The age is  E[Y^2]/(2 E[Y]) + (sum_k E[A_k * Pr(S > A_k)]) / E[K] + E[S]
    where A_k is the partial sum of the first k-1 interarrival gaps of a
    cycle and K is the number of arrivals the cycle consumes.

    For exponential service (rate mu) the renewal structure closes the
    sum: with L(s) = E[exp(-s Y)] the Laplace transform of the
    interarrival law, K is geometric with success probability
    p = 1 - L(mu), and the age is
    E[Y^2]/(2 E[Y]) + E[Y exp(-mu Y)] / p + 1/mu.  Every exponential-service
    quantity (the age, the moments and the pmf of K) is built on that one
    p.

    For any other service law these are integrals of the service ccdf
    against U, the renewal measure of the gaps (an atom at 0 plus the
    renewal function): E[K] against U, the crossing sum against x dU,
    E[K^2] against 2 U*U - U, Pr(K = k) against convolution powers of the
    gap law.  The gaps are rounded down, and separately up, onto a lattice
    of step E[Y]/256, and u = delta + f*u is solved by an exponentially
    tilted FFT.  Rounding down shrinks every partial sum, so the two
    solves bracket E[K], E[K^2] and each Pr(S > T_k); results are their
    midpoints, with half-widths spanning the brackets.  x Pr(S > x) is not
    monotone, so the age's half-width, the ratio's range over the solves'
    components, is a width, not a proven bound (typically hundreds of
    times the actual error).  Deterministic gaps give the exact sums.

Preemption
    K is geometric with success probability p = Pr(service <= next gap),
    which collapses the age to
    E[Y^2]/(2 E[Y]) + E[Y * Pr(S > Y)] / p + E[S | S < Y],
    evaluated by the panel quadrature of :func:`~aoi.distributions.expect`
    on array integrands, whose error estimate (the summed disagreement of
    its 20- and 10-point rules plus a roundoff floor) goes into the
    half-width.  :func:`success_probability` and the crossing term
    E[Y * Pr(S > Y)] / p are shared with exponential-service dropping,
    where Pr(S > Y) = exp(-mu Y).  The denominator is the success
    probability p, not E[Pr(S > Y)] = 1 - p: only the former reproduces
    the known M/M/1/1 preemptive age 1/lambda + 1/mu and agrees with
    simulation.

Nothing here samples; the CLI and the sweep spec validate
:class:`EstimatorOptions`, but no estimator reads it.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (QUAD_REL_TOL, Deterministic, Distribution,
                            Exponential, expect)
from .errors import AoiError, TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Moment, Z95

__all__ = [
    "EstimatorOptions",
    "DEFAULT_OPTIONS",
    "KPmf",
    "exact_age_dropping",
    "moments_of_K_dropping",
    "k_pmf",
    "success_probability",
    "conditional_mean_service",
    "exact_age_preemption",
]

_LATTICE_STEPS = 256     # lattice points per mean gap
_MIN_STEPS = 16          # the coarsest lattice before a cycle is too deep
_MAX_LATTICE = 1 << 18   # lattice points per solve: bounds time and memory
_SERVICE_TAIL = 1e-13    # service mass left beyond the lattice
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


@dataclass(frozen=True)
class KPmf:
    """Distribution of K; each ``stderr`` is the half-width over Z95."""

    pmf: tuple[Moment, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Moment         # Pr(K > k_max)
    k_max: int


class _Solve(NamedTuple):
    """The dropping sums of one lattice solve."""

    k_mean: float        # E[K]
    crossing: float      # sum_k E[A_k * Pr(S > A_k)]
    k_second: float      # E[K^2]
    path: np.ndarray     # Pr(K > k) = E[Pr(S > T_k)], k = 0..k_max


def _require_valid_pair(interarrival: Distribution, service: Distribution):
    if interarrival.mean() <= 0:
        raise ValueError("interarrival law must have a positive mean")
    if not math.isfinite(interarrival.second_moment()):
        raise ValueError("interarrival law must have a finite second moment")
    if not math.isfinite(service.mean()):
        raise ValueError("service law must have a finite mean")


def _head(interarrival: Distribution) -> float:
    """E[Y^2]/(2E[Y]), the first term of every age and bound."""
    return interarrival.second_moment() / (2.0 * interarrival.mean())


def _lattice_solves(interarrival: Distribution, service: Distribution,
                    k_max: int = 0) -> tuple[_Solve, _Solve]:
    """The dropping sums with every gap rounded down, then up, to the
    lattice jh, h = E[Y]/m, up to the service's 1 - 1e-13 quantile.

    m halves from 256 until at most 2^18 points remain; below 16 the cycle
    is too deep (:class:`TruncationNotReached`).  A service breakpoint
    within rounding of a lattice point (the D value, the SE shift) is
    evaluated there exactly, keeping its tie rule at every time scale.
    """
    hi = service.support()[1]
    top = hi if math.isfinite(hi) else service.quantile(1.0 - _SERVICE_TAIL)
    point_mass = isinstance(interarrival, Deterministic)
    m = 1 if point_mass else _LATTICE_STEPS
    while True:
        h = interarrival.mean() / m
        n = int(top / h) + 2
        if n <= _MAX_LATTICE:
            break
        if m <= _MIN_STEPS:
            raise TruncationNotReached(
                f"a cycle spans {n} lattice points, more than {_MAX_LATTICE}; "
                "the expected arrivals-per-cycle count is too large to resolve")
        m //= 2
    grid = h * np.arange(n + 1)
    x = grid[:n].copy()
    for b in service.breakpoints():
        j = round(b / h)
        if j < n and abs(x[j] - b) <= _SNAP * h:
            x[j] = b
    c = service.ccdf(x)
    first = 1.0 - float(c[0])  # Pr(K >= 1) = 1 whatever the service
    if point_mass:  # U has one atom per lattice point; T_k = k E[Y]
        solve = _Solve(float(first + c.sum()), float(x @ c),
                       float(first + (2.0 * np.arange(n) + 1.0) @ c),
                       np.concatenate(([1.0], c[1:], np.zeros(k_max)))[:k_max + 1])
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
        path = [1.0] + [total(spectrum**k, against_c)
                        for k in range(1, k_max + 1)]
        solves.append(_Solve(
            first + total(renewal, against_c), total(renewal, against_xc),
            first + total(renewal * (2.0 * renewal - 1.0), against_c),
            np.array(path)))
    return solves[0], solves[1]


def _midpoint(a: float, b: float) -> tuple[float, float]:
    """The midpoint of a bracket and its half-width."""
    return 0.5 * (a + b), 0.5 * abs(a - b)


def _ratio_bracket(num: float, num_hw: float, den: float, den_hw: float
                   ) -> tuple[float, float]:
    """num/den and the half-width of its range over both brackets.  The
    denominator is an E[K] bracket, whose lower end min(down, up) is >= 1."""
    ratio = num / den
    return ratio, max((num + num_hw) / (den - den_hw) - ratio,
                      ratio - (num - num_hw) / (den + den_hw))


def _success_p(interarrival: Distribution, service: Distribution,
               error: type[AoiError]) -> float:
    """:func:`success_probability`, raising ``error`` when it is 0: no
    service completes, so the geometric cycle count K has no finite mean."""
    p = success_probability(interarrival, service)
    if p <= 0.0:
        raise error(f"Pr(success) = 0 for interarrival {interarrival.describe()} "
                    f"vs service {service.describe()}")
    return p


def _crossing(interarrival: Distribution, service: Distribution,
              p: float) -> tuple[float, float]:
    """E[Y Pr(S > Y)] / p, the middle term of every geometric-cycle age,
    and its quadrature error."""
    value, err = expect(interarrival, lambda y: y * service.ccdf(y),
                        extra_breakpoints=service.breakpoints())
    return value / p, err / p


def exact_age_dropping(interarrival: Distribution,
                       service: Distribution) -> AgeEstimate:
    """Average age under dropping; ``cycles_used`` is 0.

    Exponential service takes the renewal form
    E[Y^2]/(2E[Y]) + E[Y exp(-mu Y)] / p + 1/mu with p = 1 - L(mu): one
    quadrature, ``ci_half_width = 0``.  Other service laws divide the
    lattice crossing sum by E[K]; the half-width is the ratio's range
    over both solves' components, a width rather than a proven bound.
    """
    _require_valid_pair(interarrival, service)
    if isinstance(service, Exponential):
        p = _success_p(interarrival, service, TruncationNotReached)
        middle, hw = _crossing(interarrival, service, p)[0], 0.0
    else:
        down, up = _lattice_solves(interarrival, service)
        middle, hw = _ratio_bracket(*_midpoint(down.crossing, up.crossing),
                                    *_midpoint(down.k_mean, up.k_mean))
    return AgeEstimate(value=_head(interarrival) + middle + service.mean(),
                       ci_half_width=hw, cycles_used=0, method="analytic")


def moments_of_K_dropping(interarrival: Distribution, service: Distribution
                          ) -> tuple[Moment, Moment]:
    """(E[K], E[K^2]) for the dropping cycle count K = min{k: A_{k+1} >= S}.

    With exponential service K is geometric with success probability
    p = 1 - E[exp(-mu Y)] (stderr 0); other service laws take the lattice
    midpoints, with the half-width over ``Z95`` as the stderr.
    """
    _require_valid_pair(interarrival, service)
    if isinstance(service, Exponential):
        p = _success_p(interarrival, service, TruncationNotReached)
        return Moment(1.0 / p, 0.0), Moment((2.0 - p) / p**2, 0.0)
    down, up = _lattice_solves(interarrival, service)
    k_mean, k_hw = _midpoint(down.k_mean, up.k_mean)
    k_second, k2_hw = _midpoint(down.k_second, up.k_second)
    return Moment(k_mean, k_hw / Z95), Moment(k_second, k2_hw / Z95)


def k_pmf(interarrival: Distribution, service: Distribution,
          k_max: int) -> KPmf:
    """Pmf of K up to ``k_max`` plus the remaining tail mass.

    Exponential service gives the geometric law Pr(K = k) = L^(k-1) (1 - L)
    and tail L^k_max with L = L(mu), exactly (zero stderr).  Other service
    laws take Pr(K = k) = Pr(K > k-1) - Pr(K > k) from the lattice.
    """
    _require_valid_pair(interarrival, service)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not isinstance(service, Exponential):
        down, up = _lattice_solves(interarrival, service, k_max)
        mid, hw = _midpoint(down.path, up.path)
        pmf = zip(mid[:-1] - mid[1:], (hw[:-1] + hw[1:]) / Z95)
        tail = Moment(float(mid[-1]), float(hw[-1]) / Z95)
        return KPmf(tuple(Moment(float(v), float(e)) for v, e in pmf), tail, k_max)
    p = _success_p(interarrival, service, TruncationNotReached)
    q = 1.0 - p
    pmf = tuple(Moment(q**(k - 1) * p, 0.0) for k in range(1, k_max + 1))
    return KPmf(pmf=pmf, tail_mass=Moment(q**k_max, 0.0), k_max=k_max)


def success_probability(interarrival: Distribution,
                        service: Distribution) -> float:
    """p = Pr(a service completes before the next arrival) = 1 - E[Pr(S > Y)].

    Exponential service has the closed form 1 - L(mu).  Otherwise ties
    count as successes, matching the simulator's completion-first rule,
    and a p within the quadrature's error estimate of 0 is 0: rounding must
    not turn an impossible completion into a tiny positive chance.
    """
    if isinstance(service, Exponential):
        return 1.0 - interarrival.laplace(service.rate)
    mean_tail, err = expect(interarrival, service.ccdf,
                            extra_breakpoints=service.breakpoints())
    p = 1.0 - mean_tail
    return 0.0 if p <= err else min(p, 1.0)


def _completed_service(interarrival: Distribution, service: Distribution,
                       p: float) -> float:
    """E[S | the service completes] = E[S * Pr(Y >= S)] / p, with p > 0
    the success probability."""
    num, _ = expect(service, lambda s: s * interarrival.tail_inclusive(s),
                    extra_breakpoints=interarrival.breakpoints())
    return num / p


def conditional_mean_service(interarrival: Distribution,
                             service: Distribution) -> float:
    """E[S | the service completes] = E[S * Pr(Y >= S)] / Pr(S <= Y).

    Raises :class:`ZeroSuccessProbability` when no service can complete.
    """
    p = _success_p(interarrival, service, ZeroSuccessProbability)
    return _completed_service(interarrival, service, p)


def exact_age_preemption(interarrival: Distribution,
                         service: Distribution) -> AgeEstimate:
    """Average age under preemption in service, by quadrature."""
    _require_valid_pair(interarrival, service)
    p = _success_p(interarrival, service, ZeroSuccessProbability)
    stilde = _completed_service(interarrival, service, p)
    middle, middle_err = _crossing(interarrival, service, p)
    # Quadrature is deterministic; the half-width only reflects the
    # integrator's own error estimate.
    ci = middle_err + QUAD_REL_TOL * (abs(middle) + stilde)
    return AgeEstimate(value=_head(interarrival) + middle + stilde,
                       ci_half_width=ci, cycles_used=0, method="analytic")
