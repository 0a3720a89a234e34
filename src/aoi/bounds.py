"""Closed-form and semi-analytic upper bounds on the average age.

Every bound is a short formula over one :class:`~aoi.analytic.Pair` of
interarrival and service laws, sharing its primitives with the exact ages
of the pair.  The three unconditional bounds are one function,
:func:`corollary_one`: the paper's Corollary 1 over the K moments of the
discipline's cycle record (:meth:`~aoi.analytic.Pair.k_moments`) plus its
service term (:meth:`~aoi.analytic.Pair.service_term`).  At a geometric K
it reads E[Y^2]/(2E[Y]) + E[Y] (1-p)/p plus the service term: the G/M/1/1
bound (exponential service, 1/lam + 2/mu at exponential arrivals) is
Corollary 1 under dropping, and Corollary 2 is Corollary 1 under
preemption with E[S | S <= Y] as the service term.  The mean-matched M/G
ordering bound is an upper bound only for interarrivals with decreasing
mean residual life and NBUE service; with IMRL interarrivals and NBUE
service it flips into a lower bound.  Its ``applicability`` tag reads
both premises from the two laws' closed-form ageing classes
(:meth:`~aoi.distributions.Distribution.mrl_class`).
:data:`aoi.experiments.ESTIMATORS` alone says which bound applies to which
discipline, under which :class:`BoundKind` label and precondition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .analytic import Pair
from .distributions import MrlVerdict
from .sim import Discipline

__all__ = [
    "BoundKind",
    "Applicability",
    "BoundReport",
    "corollary_one",
    "mg11_ordering_bound",
]


class BoundKind(str, Enum):
    """The label :data:`aoi.experiments.ESTIMATORS` gives each bound tag."""

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
    """A bound value with its validity regime and how far it moves over
    the proven brackets of its inputs (0 for exact inputs)."""

    value: float
    applicability: Applicability
    half_width: float = 0.0

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"bound value must be positive, got {self.value}")


def corollary_one(pair: Pair, discipline: Discipline) -> BoundReport:
    """Corollary 1 under ``discipline``: E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K])
    - 1/2) plus the service term, with the half-width of its range over
    the K brackets plus the service term's error.

    Tight when the cycle count is independent of the gaps, e.g. at
    deterministic gaps under dropping.
    """
    k_mean, k_second = pair.k_moments(discipline)
    service = pair.service_term(discipline)
    ratio, ratio_hw = k_second.over(k_mean)
    y_mean = pair.interarrival.mean()
    return BoundReport(
        value=pair.head + y_mean * (0.5 * ratio - 0.5) + service.value,
        applicability=Applicability.UNCONDITIONAL,
        half_width=0.5 * y_mean * ratio_hw + service.half_width)


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
    if not pair.service.mrl_class().nbue:
        applicability = Applicability.PREMISE_NOT_MET
    elif pair.interarrival.mrl_class() is MrlVerdict.IMRL:
        applicability = Applicability.REVERSED_UNDER_IMRL
    else:
        applicability = Applicability.REQUIRES_DMRL_NBUE
    return BoundReport(value, applicability)
