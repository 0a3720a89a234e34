"""Closed-form and semi-analytic upper bounds on the average age.

All bounds are moment arithmetic.  The exponential-service bound takes
its geometric cycle count from the analytic module's renewal form, and
the preemption bound its conditional mean service term from the analytic
module.  At exponential arrivals the exponential-service bound is the
M/M/1/1 value 1/lam + 2/mu.  The mean-matched M/G ordering bound is an
upper bound only for interarrivals with decreasing mean residual life and
NBUE service; with IMRL interarrivals it flips into a lower bound, which
the ``applicability`` tag records.  :data:`aoi.experiments.ESTIMATORS`
says which bound applies to which discipline and how its inputs are found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

from .analytic import (_completed_service, _head, _ratio_bracket,
                       moments_of_K_dropping)
from .distributions import Distribution, Exponential, MrlVerdict
from .sim import Z95, Moment

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


def _interval(m: Union[Moment, float]) -> tuple[float, float]:
    """A moment's value and 95% half-width; a bare float is exact."""
    return (m.value, Z95 * m.stderr) if isinstance(m, Moment) else (float(m), 0.0)


def ub_dropping_general(interarrival: Distribution, service: Distribution,
                        kmoments: tuple[Union[Moment, float], Union[Moment, float]]
                        ) -> BoundReport:
    """Unconditional dropping bound
    E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K]) - 1/2) + E[S].

    Tight exactly when the interarrival times are deterministic.  The K
    moments come from ``moments_of_K_dropping`` or a closed form.
    """
    (k_mean, k_mean_hw), (k_second, k_second_hw) = map(_interval, kmoments)
    if k_mean < 1:
        raise ValueError(f"E[K] must be >= 1, got {k_mean}")
    ratio, ratio_hw = _ratio_bracket(k_second, k_second_hw, k_mean, k_mean_hw)
    value = (_head(interarrival)
             + interarrival.mean() * (0.5 * ratio - 0.5)
             + service.mean())
    return BoundReport(
        value=value, kind=BoundKind.CorollaryOneDropping,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(),
                "k_mean": k_mean, "k_second_moment": k_second},
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


def mg11_ordering_bound(mean_interarrival: float, service: Distribution,
                        interarrival_verdict: Optional[MrlVerdict] = None
                        ) -> BoundReport:
    """Dropping age of the mean-matched exponential-arrival system:
    E[(Ye + S)^2] / (2 E[Ye + S]) + E[S] with Ye exponential of the same mean.

    Depends on the interarrival law only through its mean, by construction.
    The caller's MRL verdict picks the label: DMRL interarrivals (with NBUE
    service) make this an upper bound; IMRL interarrivals reverse it into
    a lower bound.
    """
    if not mean_interarrival > 0:
        raise ValueError(f"mean interarrival must be > 0, got {mean_interarrival}")
    ye_mean = mean_interarrival
    ye_second = 2.0 * mean_interarrival**2
    es = service.mean()
    es2 = service.second_moment()
    value = ((ye_second + 2.0 * ye_mean * es + es2)
             / (2.0 * (ye_mean + es)) + es)
    applicability = (Applicability.REVERSED_UNDER_IMRL
                     if interarrival_verdict is MrlVerdict.IMRL
                     else Applicability.REQUIRES_DMRL_NBUE)
    return BoundReport(
        value=value, kind=BoundKind.MG11Ordering, applicability=applicability,
        inputs={"mean_interarrival": mean_interarrival,
                "service": service.to_dict(),
                "interarrival_verdict":
                    interarrival_verdict.value if interarrival_verdict else None})


def ub_preemption(interarrival: Distribution,
                  service: Distribution) -> BoundReport:
    """Unconditional preemption bound
    E[Y^2]/(2E[Y]) + E[Y] (1-p)/p + E[S | S < Y] with p the success
    probability.  Tight when the cycle count is independent of the gaps
    (e.g. deterministic gaps with p = 1)."""
    p, stilde = _completed_service(interarrival, service)
    value = (_head(interarrival)
             + interarrival.mean() * (1.0 - p) / p
             + stilde)
    return BoundReport(
        value=value, kind=BoundKind.CorollaryTwoPreemption,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(), "success_probability": p})
