"""Closed-form and semi-analytic upper bounds on the average age.

Every bound takes the interarrival and service laws and derives its own
inputs: the general dropping bound its K moments from
:func:`~aoi.analytic.moments_of_K_dropping`, the exponential-service bound
its geometric cycle count from the same renewal form, and the preemption
bound its success probability and conditional mean service term from the
analytic module.  At exponential arrivals the exponential-service bound is
the M/M/1/1 value 1/lam + 2/mu.  The mean-matched M/G ordering bound is an
upper bound only for interarrivals with decreasing mean residual life and
NBUE service; with IMRL interarrivals it flips into a lower bound, which
the ``applicability`` tag records from :func:`classify_mrl`.
:data:`aoi.experiments.ESTIMATORS` says which bound applies to which
discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .analytic import (_completed_service, _head, _ratio_bracket,
                       _require_valid_pair, _success_p, moments_of_K_dropping)
from .distributions import Distribution, Exponential, MrlVerdict, classify_mrl
from .errors import ZeroSuccessProbability
from .sim import Z95

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


def ub_dropping_general(interarrival: Distribution,
                        service: Distribution) -> BoundReport:
    """Unconditional dropping bound
    E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K]) - 1/2) + E[S]
    with the K moments of :func:`moments_of_K_dropping`.

    Tight exactly when the interarrival times are deterministic.  The
    half-width is the bound's range over the moments' brackets.
    """
    k_mean, k_second = moments_of_K_dropping(interarrival, service)
    ratio, ratio_hw = _ratio_bracket(k_second.value, Z95 * k_second.stderr,
                                     k_mean.value, Z95 * k_mean.stderr)
    value = (_head(interarrival)
             + interarrival.mean() * (0.5 * ratio - 0.5)
             + service.mean())
    return BoundReport(
        value=value, kind=BoundKind.CorollaryOneDropping,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(),
                "k_mean": k_mean.value, "k_second_moment": k_second.value},
        half_width=0.5 * interarrival.mean() * ratio_hw)


def ub_dropping_gm(interarrival: Distribution, service_rate: float) -> BoundReport:
    """Dropping bound for exponential service, fully closed form:
    E[Y^2]/(2E[Y]) + E[Y] (E[K] - 1) + 1/mu with the geometric
    E[K] = 1/(1 - E[exp(-mu Y)]) of :func:`moments_of_K_dropping`."""
    k_mean, _ = moments_of_K_dropping(interarrival, Exponential(service_rate))
    value = (_head(interarrival)
             + interarrival.mean() * (k_mean.value - 1.0)
             + 1.0 / service_rate)
    return BoundReport(
        value=value, kind=BoundKind.GM11,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service_rate": service_rate})


def mg11_ordering_bound(interarrival: Distribution,
                        service: Distribution) -> BoundReport:
    """Dropping age of the mean-matched exponential-arrival system:
    E[(Ye + S)^2] / (2 E[Ye + S]) + E[S] with Ye exponential of mean E[Y].

    The value depends on the interarrival law only through its mean, by
    construction; its :func:`classify_mrl` verdict picks the label: DMRL
    interarrivals (with NBUE service) make this an upper bound; IMRL
    interarrivals reverse it into a lower bound.
    """
    _require_valid_pair(interarrival, service)
    ye_mean = interarrival.mean()
    ye_second = 2.0 * ye_mean**2
    es = service.mean()
    es2 = service.second_moment()
    value = ((ye_second + 2.0 * ye_mean * es + es2)
             / (2.0 * (ye_mean + es)) + es)
    verdict = classify_mrl(interarrival).verdict
    applicability = (Applicability.REVERSED_UNDER_IMRL
                     if verdict is MrlVerdict.IMRL
                     else Applicability.REQUIRES_DMRL_NBUE)
    return BoundReport(
        value=value, kind=BoundKind.MG11Ordering, applicability=applicability,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(),
                "interarrival_verdict": verdict.value})


def ub_preemption(interarrival: Distribution,
                  service: Distribution) -> BoundReport:
    """Unconditional preemption bound
    E[Y^2]/(2E[Y]) + E[Y] (1-p)/p + E[S | S < Y] with p the success
    probability.  Tight when the cycle count is independent of the gaps
    (e.g. deterministic gaps with p = 1)."""
    _require_valid_pair(interarrival, service)
    p = _success_p(interarrival, service, ZeroSuccessProbability)
    stilde = _completed_service(interarrival, service, p)
    value = (_head(interarrival)
             + interarrival.mean() * (1.0 - p) / p
             + stilde)
    return BoundReport(
        value=value, kind=BoundKind.CorollaryTwoPreemption,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(), "success_probability": p})
