"""Closed-form and semi-analytic upper bounds on the average age.

Every bound is a short formula over one :class:`~aoi.analytic.Pair` of
interarrival and service laws, sharing its primitives with the exact ages
of the pair.  The three unconditional bounds are one function,
:func:`corollary_one`: the paper's Corollary 1 over the K moments of the
discipline's cycle record (:meth:`~aoi.analytic.Pair.cycles`) plus its
service term (:meth:`~aoi.analytic.Pair.service_term`).  At a geometric K
it reads E[Y^2]/(2E[Y]) + E[Y] (1-p)/p plus the service term: the G/M/1/1
bound (exponential service, 1/lam + 2/mu at exponential arrivals) is
Corollary 1 under dropping, and Corollary 2 is Corollary 1 under
preemption with E[S | S <= Y] as the service term.  The mean-matched M/G
ordering bound is the exact dropping age of the pair with exponential
arrivals of the same mean: an upper bound only for DMRL interarrivals and
NBUE service, a lower bound for IMRL ones.  Its ``applicability`` tag
reads both premises from the two laws' closed-form ageing classes
(:meth:`~aoi.distributions.Distribution.mrl_class`).
:data:`aoi.experiments.ESTIMATORS` alone says which bound applies to which
discipline, under which :class:`BoundKind` label and precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .analytic import Pair, exact_age
from .distributions import Exponential, MrlVerdict
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
    the record's K moment intervals plus the service term's error.

    Tight when the cycle count is independent of the gaps, e.g. at
    deterministic gaps under dropping.
    """
    cycles = pair.cycles(discipline)
    service = pair.service_term(discipline)
    k_mean, k_second, *_ = cycles.sums()
    ratio, ratio_hw = k_second.over(k_mean)
    y_mean = pair.interarrival.mean()
    return BoundReport(
        value=pair.head + y_mean * (0.5 * ratio - 0.5) + service.value,
        applicability=Applicability.UNCONDITIONAL,
        half_width=0.5 * y_mean * ratio_hw + service.half_width)


def mg11_ordering_bound(pair: Pair) -> BoundReport:
    """The exact dropping age, and its half-width, of the mean-matched
    pair: exponential arrivals of mean E[Y] with the same service.

    The value depends on the interarrival law only through its mean, by
    construction.  The laws' ageing classes pick the label.  Without NBUE
    service the premise is not met: it can fall on either side of the
    age.  With NBUE service, DMRL (or constant) interarrivals make it an
    upper bound and IMRL interarrivals reverse it into a lower bound.
    An E[S^2] that overflows raises the one-phase record's
    :class:`~aoi.errors.TruncationNotReached`.
    """
    matched = exact_age(Pair(Exponential(1.0 / pair.interarrival.mean()),
                             pair.service), Discipline.DROPPING)
    if not pair.service.mrl_class().nbue:
        applicability = Applicability.PREMISE_NOT_MET
    elif pair.interarrival.mrl_class() is MrlVerdict.IMRL:
        applicability = Applicability.REVERSED_UNDER_IMRL
    else:
        applicability = Applicability.REQUIRES_DMRL_NBUE
    return BoundReport(matched.value, applicability, matched.ci_half_width)
