"""Closed-form and semi-analytic upper bounds on the average age.

All bounds are moment arithmetic.  The exponential-service bounds take
their geometric cycle count, and ``mm11`` its exact value, from the
analytic module's renewal form; the preemption bound's conditional mean
service term also comes from the analytic module.  The mean-matched
M/G ordering bound is an upper bound only for interarrivals with decreasing
mean residual life and NBUE service; with IMRL interarrivals it flips into
a lower bound, which the ``applicability`` tag records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

from .analytic import (_completed_service, _head, exact_age_dropping,
                       moments_of_K_dropping)
from .distributions import Distribution, Exponential, MrlVerdict
from .sim import Moment

__all__ = [
    "BoundKind",
    "Applicability",
    "BoundReport",
    "ub_dropping_general",
    "ub_dropping_gm",
    "mm11",
    "mg11_ordering_bound",
    "ub_preemption",
]


class BoundKind(str, Enum):
    CorollaryOneDropping = "CorollaryOneDropping"
    GM11 = "GM11"
    MM11 = "MM11"
    MM11Exact = "MM11Exact"
    MG11Ordering = "MG11Ordering"
    CorollaryTwoPreemption = "CorollaryTwoPreemption"


class Applicability(str, Enum):
    UNCONDITIONAL = "Unconditional"
    REQUIRES_DMRL_NBUE = "RequiresDMRLandNBUE"
    REVERSED_UNDER_IMRL = "ReversedUnderIMRL"


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its kind, validity regime and echoed inputs."""

    value: float
    kind: BoundKind
    applicability: Applicability
    inputs: Mapping[str, object]

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"bound value must be positive, got {self.value}")
        if (self.kind is not BoundKind.MG11Ordering
                and self.applicability is not Applicability.UNCONDITIONAL):
            raise ValueError(
                "only the MG11Ordering bound carries a conditional label")


def _as_value(m: Union[Moment, float]) -> float:
    return m.value if isinstance(m, Moment) else float(m)


def ub_dropping_general(interarrival: Distribution, service: Distribution,
                        kmoments: tuple[Union[Moment, float], Union[Moment, float]]
                        ) -> BoundReport:
    """Unconditional dropping bound
    E[Y^2]/(2E[Y]) + E[Y] (E[K^2]/(2E[K]) - 1/2) + E[S].

    Tight exactly when the interarrival times are deterministic.  The K
    moments come from ``moments_of_K_dropping`` or a closed form.
    """
    k_mean, k_second = (_as_value(kmoments[0]), _as_value(kmoments[1]))
    if k_mean < 1:
        raise ValueError(f"E[K] must be >= 1, got {k_mean}")
    value = (_head(interarrival)
             + interarrival.mean() * (k_second / (2.0 * k_mean) - 0.5)
             + service.mean())
    return BoundReport(
        value=value, kind=BoundKind.CorollaryOneDropping,
        applicability=Applicability.UNCONDITIONAL,
        inputs={"interarrival": interarrival.to_dict(),
                "service": service.to_dict(),
                "k_mean": k_mean, "k_second_moment": k_second})


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


def mm11(arrival_rate: float, service_rate: float
         ) -> tuple[BoundReport, BoundReport]:
    """(exact, bound) for exponential/exponential dropping, the G/M forms
    at exponential arrivals: exact is :func:`exact_age_dropping`
    (1/lam + 2/mu - 1/(lam + mu)), bound is :func:`ub_dropping_gm`
    (1/lam + 2/mu)."""
    interarrival = Exponential(arrival_rate)
    inputs = {"arrival_rate": arrival_rate, "service_rate": service_rate}
    exact = BoundReport(
        value=exact_age_dropping(interarrival, Exponential(service_rate)).value,
        kind=BoundKind.MM11Exact, applicability=Applicability.UNCONDITIONAL,
        inputs=inputs)
    bound = BoundReport(
        value=ub_dropping_gm(interarrival, service_rate).value,
        kind=BoundKind.MM11, applicability=Applicability.UNCONDITIONAL,
        inputs=inputs)
    return exact, bound


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
