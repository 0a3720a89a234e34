"""Closed-form and semi-analytic upper bounds on the average age.

Every bound is a short formula over one :class:`~aoi.analytic.Pair` of
interarrival and service laws, sharing its primitives with the exact ages
of the pair: the general dropping bound its K moments
(:func:`~aoi.analytic.moments_of_K_dropping`), the exponential-service
bound its geometric cycle count and mu, and the preemption bound its
success probability and completed-service term.  At exponential arrivals
the exponential-service bound is
the M/M/1/1 value 1/lam + 2/mu.  The mean-matched M/G ordering bound is an
upper bound only for interarrivals with decreasing mean residual life and
NBUE service; with IMRL interarrivals and NBUE service it flips into a
lower bound.  Its ``applicability`` tag reads both premises from the two
laws' closed-form ageing classes
(:meth:`~aoi.distributions.Distribution.mrl_class`).
:data:`aoi.experiments.ESTIMATORS` says which bound applies to which
discipline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .analytic import Pair, moments_of_K_dropping
from .distributions import Exponential, MrlVerdict

__all__ = [
    "BoundKind",
    "Applicability",
    "BoundReport",
    "ub_dropping_general",
    "ub_dropping_gm",
    "mg11_ordering_bound",
    "ub_preemption",
]


class BoundKind(str, Enum):
    CorollaryOneDropping = "CorollaryOneDropping"
    GM11 = "GM11"
    MG11Ordering = "MG11Ordering"
    CorollaryTwoPreemption = "CorollaryTwoPreemption"


class Applicability(str, Enum):
    UNCONDITIONAL = "Unconditional"
    REQUIRES_DMRL_NBUE = "RequiresDMRLandNBUE"
    REVERSED_UNDER_IMRL = "ReversedUnderIMRL"
    PREMISE_NOT_MET = "PremiseNotMet"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its kind, validity regime, echoed inputs, and
    how far it moves over its inputs' 95% intervals (0 for exact inputs)."""

    value: float
    kind: BoundKind
    applicability: Applicability
    inputs: Mapping[str, object]
    half_width: float = 0.0

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"bound value must be positive, got {self.value}")
        if (self.kind is not BoundKind.MG11Ordering
                and self.applicability is not Applicability.UNCONDITIONAL):
            raise ValueError(
                "only the MG11Ordering bound carries a conditional label")


def ub_dropping_general(pair: Pair) -> BoundReport:
    """Unconditional dropping bound
    E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K]) - 1/2) + E[S]
    with the K moments of :func:`moments_of_K_dropping`.

    Tight exactly when the interarrival times are deterministic.  The
    half-width is the bound's range over the moments' brackets.
    """
    k_mean, k_second = moments_of_K_dropping(pair)
    ratio, ratio_hw = k_second.over(k_mean)
    y_mean = pair.interarrival.mean()
    return BoundReport(
        value=pair.head + y_mean * (0.5 * ratio - 0.5) + pair.service.mean(),
        kind=BoundKind.CorollaryOneDropping,
        applicability=Applicability.UNCONDITIONAL,
        inputs={**pair.to_dict(), "k_mean": k_mean.value,
                "k_second_moment": k_second.value},
        half_width=0.5 * y_mean * ratio_hw)


def ub_dropping_gm(pair: Pair) -> BoundReport:
    """Dropping bound for exponential service, fully closed form:
    E[Y^2]/(2E[Y]) + E[Y] (E[K] - 1) + 1/mu with the geometric
    E[K] = 1/(1 - E[exp(-mu Y)]) of :func:`moments_of_K_dropping`."""
    if not isinstance(pair.service, Exponential):
        raise ValueError("ub_dropping_gm needs an exponential service law")
    k_mean, _ = moments_of_K_dropping(pair)
    rate = pair.service.rate
    return BoundReport(
        value=pair.head + pair.interarrival.mean() * (k_mean.value - 1.0) + 1.0 / rate,
        kind=BoundKind.GM11, applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": pair.interarrival.to_dict(), "service_rate": rate})


def mg11_ordering_bound(pair: Pair) -> BoundReport:
    """Dropping age of the mean-matched exponential-arrival system:
    E[(Ye + S)^2] / (2 E[Ye + S]) + E[S] with Ye exponential of mean E[Y].

    The value depends on the interarrival law only through its mean, by
    construction.  The laws' ageing classes pick the label.  Without NBUE
    service the premise is not met: it can fall on either side of the
    age.  With NBUE service, DMRL (or constant) interarrivals make it an
    upper bound and IMRL interarrivals reverse it into a lower bound.
    Raises ``ValueError`` when E[S^2] overflows, or underflows to 0 while
    E[S] > 0.
    """
    ye_mean = pair.interarrival.mean()
    ye_second = 2.0 * ye_mean**2
    es = pair.service.mean()
    es2 = pair.service.second_moment()
    if not math.isfinite(es2) or (es2 == 0.0 and es > 0.0):
        raise ValueError(f"service second moment {es2!r} is out of the "
                         "float range")
    value = ((ye_second + 2.0 * ye_mean * es + es2)
             / (2.0 * (ye_mean + es)) + es)
    y_class = pair.interarrival.mrl_class()
    s_class = pair.service.mrl_class()
    if not s_class.nbue:
        applicability = Applicability.PREMISE_NOT_MET
    elif y_class is MrlVerdict.IMRL:
        applicability = Applicability.REVERSED_UNDER_IMRL
    else:
        applicability = Applicability.REQUIRES_DMRL_NBUE
    return BoundReport(
        value=value, kind=BoundKind.MG11Ordering, applicability=applicability,
        inputs={**pair.to_dict(), "interarrival_verdict": y_class.value,
                "service_verdict": s_class.value})


def ub_preemption(pair: Pair) -> BoundReport:
    """Unconditional preemption bound
    E[Y^2]/(2E[Y]) + E[Y] (1-p)/p + E[S | S < Y] with p the success
    probability.  Tight when the cycle count is independent of the gaps
    (e.g. deterministic gaps with p = 1)."""
    stilde = pair.completed_service  # raises before p = 0 divides
    p = pair.p
    return BoundReport(
        value=pair.head + pair.interarrival.mean() * (1.0 - p) / p + stilde,
        kind=BoundKind.CorollaryTwoPreemption,
        applicability=Applicability.UNCONDITIONAL,
        inputs={**pair.to_dict(), "success_probability": p})
