"""Reference oracle for the dropping sums of ``aoi.analytic``: the Monte
Carlo partial-sum walk.

Per replicate it draws gaps until the service tail at the partial sum is
negligible, integrating the service out through its ccdf.  It shares no
code with the lattice solve, so the two agree within the walk's
confidence interval plus the lattice half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from aoi.analytic import Pair
from aoi.distributions import Distribution
from aoi.errors import TruncationNotReached
from aoi.sim import Moment

_MAX_WALK_TERMS = 10_000
_WALK_EPS = 1e-8  # a replicate stops once its terms fall below this share
_TINY = 1e-300


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


def dropping_walk_moments(interarrival: Distribution, service: Distribution,
                          samples: int = 1_000_000, seed: int = 0
                          ) -> WalkMoments:
    """Run the vectorized partial-sum walk once, ``samples`` replicates
    from ``seed``, and reduce it.

    Per replicate, gaps are drawn until the service tail at the partial sum
    is negligible; the k-th step contributes ``ccdf(A_k)`` to the K mass,
    ``A_k * ccdf(A_k)`` to the crossing sum and ``(2k-1) * ccdf(A_k)`` to
    the second moment of K (the k = 1 step contributes exactly 1, 0, 1).
    Raises :class:`TruncationNotReached` after 10^4 terms.
    """
    Pair(interarrival, service)  # raises ValueError for a pair it rejects
    rng = np.random.default_rng(seed)
    n = samples

    # The live replicates' partial sum, count, crossing sum and K^2 sum,
    # kept contiguous, and each one's replicate; a replicate's last three
    # are scattered to ``retired`` once, when it retires.
    partial, count, asum, ksq = np.zeros(n), np.ones(n), np.zeros(n), np.ones(n)
    which = np.arange(n)
    retired = np.empty((3, n))

    for k in range(2, _MAX_WALK_TERMS + 1):
        partial += interarrival.sample_array(rng, which.size)
        tail = np.asarray(service.ccdf(partial), dtype=float)
        count += tail
        asum += partial * tail
        ksq += (2 * k - 1) * tail
        done = ((tail <= _WALK_EPS * count)
                & (partial * tail <= _WALK_EPS * np.maximum(asum, _TINY)))
        if done.any():
            gone, keep = which[done], ~done
            for row, live in zip(retired, (count, asum, ksq)):
                row[gone] = live[done]
            partial, count, asum, ksq, which = (
                v[keep] for v in (partial, count, asum, ksq, which))
        if which.size == 0:
            break
    else:
        raise TruncationNotReached(
            f"partial-sum walk still active after {_MAX_WALK_TERMS} terms; "
            "the expected arrivals-per-cycle count may diverge")
    count, asum, ksq = retired

    def reduce(xs):
        return Moment(float(xs.mean()),
                      float(xs.std(ddof=1) / math.sqrt(n)))

    cov = float(np.cov(asum, count, ddof=1)[0, 1] / n)
    return WalkMoments(sum_term=reduce(asum), k_mean=reduce(count),
                       k_second=reduce(ksq), cov_sum_k=cov, samples=n)


class WalkPmf(NamedTuple):
    """Monte Carlo pmf of K, each probability with its standard error."""

    pmf: tuple[Moment, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Moment         # Pr(K > k_max)


def _k_pmf_walk(interarrival: Distribution, service: Distribution, k_max: int,
                samples: int, seed: int) -> WalkPmf:
    """Monte Carlo pmf of K over ``samples`` replicates from ``seed``:
    Pr(K = k) = E[ccdf(A_k) - ccdf(A_{k+1})] along the gap path, with
    ccdf(A_1) taken as 1; every replicate draws exactly k_max gaps.
    """
    rng = np.random.default_rng(seed)
    n = samples
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
    return WalkPmf(pmf=tuple(pmf), tail_mass=tail_mass)
