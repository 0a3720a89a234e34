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
    p; nothing is sampled.

    For any other service law the infinite sum and the moments of K are
    estimated by Monte Carlo over replicates of the partial-sum walk:
    along each replicate path the service variable is integrated out
    analytically through its ccdf, which keeps the dependence between K
    and the gaps intact and removes one layer of noise.  A replicate
    truncates once its running terms fall below a fixed 1e-8 times the
    accumulated sums (the ccdf factor is monotone along a path, so the
    criterion is stable).  The walk also serves as the oracle that
    tests hold the exponential-service forms against.

Preemption
    K is geometric with success probability p = Pr(service <= next gap),
    which collapses the age to
    E[Y^2]/(2 E[Y]) + E[Y * Pr(S > Y)] / p + E[S | S < Y],
    evaluated by adaptive quadrature.  The denominator is the success
    probability p, not E[Pr(S > Y)] = 1 - p: only the former reproduces
    the known M/M/1/1 preemptive age 1/lambda + 1/mu and agrees with
    simulation.

Only the Monte Carlo paths take :class:`EstimatorOptions` (replicate count
and seed); every quadrature runs at the fixed ``QUAD_REL_TOL``, so the
preemption functions take no options.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import QUAD_REL_TOL, Distribution, Exponential, expect
from .errors import TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Moment, Z95

__all__ = [
    "EstimatorOptions",
    "DEFAULT_OPTIONS",
    "WalkMoments",
    "KPmf",
    "dropping_walk_moments",
    "exact_age_dropping",
    "moments_of_K_dropping",
    "k_pmf",
    "success_probability",
    "conditional_mean_service",
    "exact_age_preemption",
]

_MAX_WALK_TERMS = 10_000
_WALK_EPS = 1e-8  # a replicate stops once its terms fall below this share
_TINY = 1e-300


@dataclass(frozen=True)
class EstimatorOptions:
    """Replicate count and seed of the Monte Carlo estimators."""

    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 10_000:
            raise ValueError(f"mc_samples must be >= 10000, got {self.mc_samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


DEFAULT_OPTIONS = EstimatorOptions()


@dataclass(frozen=True)
class WalkMoments:
    """Replicate-level moments from the dropping partial-sum walk."""

    sum_term: Moment      # sum_k E[A_k * Pr(S > A_k)]
    k_mean: Moment        # E[K]
    k_second: Moment      # E[K^2]
    cov_sum_k: float      # covariance of the two sample means
    samples: int

    def ratio(self) -> Moment:
        """sum_term / E[K], the middle term of the dropping age, with its
        delta-method standard error."""
        ratio = self.sum_term.value / self.k_mean.value
        var = (self.sum_term.stderr**2
               - 2.0 * ratio * self.cov_sum_k
               + ratio**2 * self.k_mean.stderr**2)
        return Moment(ratio, math.sqrt(max(var, 0.0)) / self.k_mean.value)


@dataclass(frozen=True)
class KPmf:
    """Estimated distribution of the arrivals-per-cycle count K."""

    pmf: tuple[Moment, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Moment         # Pr(K > k_max)
    k_max: int


def _require_valid_pair(interarrival: Distribution, service: Distribution):
    if interarrival.mean() <= 0:
        raise ValueError("interarrival law must have a positive mean")
    if not math.isfinite(interarrival.second_moment()):
        raise ValueError("interarrival law must have a finite second moment")
    if not math.isfinite(service.mean()):
        raise ValueError("service law must have a finite mean")


def _head(interarrival: Distribution) -> float:
    """E[Y^2]/(2E[Y]), the first term of every age and bound."""
    if interarrival.mean() <= 0:
        raise ValueError("interarrival law must have a positive mean")
    return interarrival.second_moment() / (2.0 * interarrival.mean())


def _geometric_p(interarrival: Distribution, service: Exponential) -> float:
    """p = 1 - L(mu): the chance that the next gap outlasts an exponential
    service, i.e. the success probability of the geometric cycle count K.

    Raises :class:`TruncationNotReached` when p <= 0, where E[K] diverges.
    """
    p = 1.0 - interarrival.laplace(service.rate)
    if p <= 0.0:
        raise TruncationNotReached(
            "geometric success probability is zero; E[K] diverges")
    return p


def dropping_walk_moments(interarrival: Distribution, service: Distribution,
                          opts: EstimatorOptions = DEFAULT_OPTIONS) -> WalkMoments:
    """Run the vectorized partial-sum walk once and reduce it.

    Per replicate, gaps are drawn until the service tail at the partial sum
    is negligible; the k-th step contributes ``ccdf(A_k)`` to the K mass,
    ``A_k * ccdf(A_k)`` to the crossing sum and ``(2k-1) * ccdf(A_k)`` to
    the second moment of K (the k = 1 step contributes exactly 1, 0, 1).
    Raises :class:`TruncationNotReached` after 10^4 terms.
    """
    _require_valid_pair(interarrival, service)
    rng = np.random.default_rng(opts.seed)
    n = opts.mc_samples

    partial = np.zeros(n)
    count = np.ones(n)
    asum = np.zeros(n)
    ksq = np.ones(n)
    active = np.arange(n)

    for k in range(2, _MAX_WALK_TERMS + 1):
        draws = interarrival.sample_array(rng, active.size)
        a = partial[active] + draws
        partial[active] = a
        tail = np.asarray(service.ccdf(a), dtype=float)
        count[active] += tail
        asum[active] += a * tail
        ksq[active] += (2 * k - 1) * tail
        done = ((tail <= _WALK_EPS * count[active])
                & (a * tail <= _WALK_EPS * np.maximum(asum[active], _TINY)))
        if done.any():
            active = active[~done]
        if active.size == 0:
            break
    else:
        raise TruncationNotReached(
            f"partial-sum walk still active after {_MAX_WALK_TERMS} terms; "
            "the expected arrivals-per-cycle count may diverge")

    def reduce(xs):
        return Moment(float(xs.mean()),
                      float(xs.std(ddof=1) / math.sqrt(n)))

    cov = float(np.cov(asum, count, ddof=1)[0, 1] / n)
    return WalkMoments(sum_term=reduce(asum), k_mean=reduce(count),
                       k_second=reduce(ksq), cov_sum_k=cov, samples=n)


def exact_age_dropping(interarrival: Distribution, service: Distribution,
                       opts: EstimatorOptions = DEFAULT_OPTIONS) -> AgeEstimate:
    """Average age under dropping.

    Exponential service takes the renewal form
    E[Y^2]/(2E[Y]) + E[Y exp(-mu Y)] / p + 1/mu with p = 1 - L(mu): one
    quadrature, no sampling, and
    ``ci_half_width = cycles_used = 0``.  Other service laws take the
    middle term from the partial-sum walk, with the delta-method
    half-width of :meth:`WalkMoments.ratio`.
    """
    _require_valid_pair(interarrival, service)
    head = _head(interarrival)
    if isinstance(service, Exponential):
        p = _geometric_p(interarrival, service)
        mu, m = service.rate, interarrival.mean()
        # E[Y exp(-mu Y)] in units of E[Y], so that expect's absolute
        # error floor is relative to the law's time scale.
        crossing, _ = expect(interarrival, lambda y: y / m * math.exp(-mu * y))
        return AgeEstimate(value=head + m * crossing / p + service.mean(),
                           ci_half_width=0.0, cycles_used=0, method="analytic")
    wm = dropping_walk_moments(interarrival, service, opts)
    ratio = wm.ratio()
    return AgeEstimate(value=head + ratio.value + service.mean(),
                       ci_half_width=Z95 * ratio.stderr,
                       cycles_used=wm.samples, method="analytic")


def moments_of_K_dropping(interarrival: Distribution, service: Distribution,
                          opts: EstimatorOptions = DEFAULT_OPTIONS
                          ) -> tuple[Moment, Moment]:
    """(E[K], E[K^2]) for the dropping cycle count K = min{k: A_{k+1} >= S}.

    With exponential service K is geometric with success probability
    p = 1 - E[exp(-mu Y)], so both moments are closed form; other service
    laws go through the partial-sum walk.
    """
    _require_valid_pair(interarrival, service)
    if isinstance(service, Exponential):
        p = _geometric_p(interarrival, service)
        return Moment(1.0 / p, 0.0), Moment((2.0 - p) / p**2, 0.0)
    wm = dropping_walk_moments(interarrival, service, opts)
    return wm.k_mean, wm.k_second


def k_pmf(interarrival: Distribution, service: Distribution, k_max: int,
          opts: EstimatorOptions = DEFAULT_OPTIONS) -> KPmf:
    """Pmf of K up to ``k_max`` plus the remaining tail mass.

    Exponential service gives the geometric law Pr(K = k) = L^(k-1) (1 - L)
    and tail L^k_max with L = L(mu), exactly (zero stderr).  Other service
    laws are estimated by the partial-sum walk.
    """
    _require_valid_pair(interarrival, service)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not isinstance(service, Exponential):
        return _k_pmf_walk(interarrival, service, k_max, opts)
    p = _geometric_p(interarrival, service)
    q = 1.0 - p
    pmf = tuple(Moment(q**(k - 1) * p, 0.0) for k in range(1, k_max + 1))
    return KPmf(pmf=pmf, tail_mass=Moment(q**k_max, 0.0), k_max=k_max)


def _k_pmf_walk(interarrival: Distribution, service: Distribution, k_max: int,
                opts: EstimatorOptions) -> KPmf:
    """Monte Carlo pmf of K: Pr(K = k) = E[ccdf(A_k) - ccdf(A_{k+1})] along
    the gap path, with ccdf(A_1) taken as 1; every replicate draws exactly
    k_max gaps.
    """
    rng = np.random.default_rng(opts.seed)
    n = opts.mc_samples
    prev_tail = np.ones(n)
    partial = np.zeros(n)
    sums = np.zeros(k_max)
    sumsq = np.zeros(k_max)
    for k in range(1, k_max + 1):
        partial += interarrival.sample_array(rng, n)
        tail = np.asarray(service.ccdf(partial), dtype=float)
        diff = prev_tail - tail
        sums[k - 1] = diff.sum()
        sumsq[k - 1] = (diff * diff).sum()
        prev_tail = tail
    pmf = []
    for k in range(k_max):
        mean = sums[k] / n
        var = max(sumsq[k] / n - mean**2, 0.0) * n / (n - 1)
        pmf.append(Moment(float(mean), float(math.sqrt(var / n))))
    tail_mass = Moment(float(prev_tail.mean()),
                       float(prev_tail.std(ddof=1) / math.sqrt(n)))
    return KPmf(pmf=tuple(pmf), tail_mass=tail_mass, k_max=k_max)


def success_probability(interarrival: Distribution,
                        service: Distribution) -> float:
    """p = Pr(a service completes before the next arrival) = 1 - E[Pr(S > Y)].

    Ties count as successes, matching the simulator's completion-first rule.
    A p within the quadrature's error estimate of 0 is 0: rounding must not
    turn an impossible completion into a tiny positive chance.
    """
    mean_tail, err = expect(interarrival, lambda y: float(service.ccdf(y)),
                            extra_breakpoints=service.breakpoints())
    p = 1.0 - mean_tail
    return 0.0 if p <= err else min(p, 1.0)


def _completed_service(interarrival: Distribution, service: Distribution
                       ) -> tuple[float, float]:
    """(p, E[S | the service completes]) with p the success probability.

    E[S | the service completes] = E[S * Pr(Y >= S)] / p.  Raises
    :class:`ZeroSuccessProbability` when no service can complete.
    """
    p = success_probability(interarrival, service)
    if p <= 0.0:
        raise ZeroSuccessProbability(
            f"Pr(success) = 0 for interarrival {interarrival.describe()} "
            f"vs service {service.describe()}")
    num, _ = expect(service, lambda s: s * interarrival.tail_inclusive(s),
                    extra_breakpoints=interarrival.breakpoints())
    return p, num / p


def conditional_mean_service(interarrival: Distribution,
                             service: Distribution) -> float:
    """E[S | the service completes] = E[S * Pr(Y >= S)] / Pr(S <= Y).

    Raises :class:`ZeroSuccessProbability` when no service can complete.
    """
    return _completed_service(interarrival, service)[1]


def exact_age_preemption(interarrival: Distribution,
                         service: Distribution) -> AgeEstimate:
    """Average age under preemption in service, by quadrature."""
    _require_valid_pair(interarrival, service)
    p, stilde = _completed_service(interarrival, service)
    mid_num, mid_err = expect(
        interarrival, lambda y: y * float(service.ccdf(y)),
        extra_breakpoints=service.breakpoints())
    middle = mid_num / p
    value = _head(interarrival) + middle + stilde
    # Quadrature is deterministic; the half-width only reflects the
    # integrator's own error estimate.
    ci = mid_err / p + QUAD_REL_TOL * (abs(middle) + stilde)
    return AgeEstimate(value=value, ci_half_width=ci,
                       cycles_used=0, method="analytic")
