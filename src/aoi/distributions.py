"""Nonnegative interarrival/service distributions and their descriptors.

The simulator and the closed-form age expressions consume the same small
family of laws. Each law is a frozen dataclass exposing

* exact first and second moments,
* the complementary CDF with the strict convention ``Pr(X > x)``, so a
  point mass at ``v`` satisfies ``ccdf(v) == 0``,
* the Laplace transform ``E[exp(-s X)]`` (closed form where available,
  adaptive quadrature for the uniform and Rayleigh laws),
* seeded sampling through :class:`numpy.random.Generator`,
* (de)serialization to JSON-ready dicts keyed by a snake_case ``kind`` tag.

Mean-residual-life utilities live here as well: :func:`mean_residual_life`
integrates the tail numerically, and :func:`classify_mrl` grades the
monotonicity of the MRL curve and the NBUE property from one grid capped
at the 0.999 quantile, with a tolerance relative to the mean.  All
quadrature (:func:`expect` and the MRL tail integral) measures the
variable in units of the law's mean, so results rescale with time, and
runs at a fixed relative tolerance (``QUAD_REL_TOL`` for :func:`expect`,
``MRL_REL_TOL`` for the tail).  The strict ccdf convention matches the
simulator's tie rule (a completion at exactly an arrival instant counts as
a success), which keeps formula evaluation and event accounting aligned.

All descriptor methods are pure; sampler state lives entirely in the
caller-supplied generator.  SciPy is imported on first use (quadrature and
a few special functions), so a simulation starts about 0.2 s sooner.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields as _dc_fields
from enum import Enum
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .errors import TailEmpty

__all__ = [
    "Distribution",
    "Exponential",
    "ShiftedExponential",
    "Deterministic",
    "Uniform",
    "Rayleigh",
    "Erlang",
    "Hyperexponential",
    "MrlVerdict",
    "MrlClassification",
    "mean_residual_life",
    "classify_mrl",
    "expect",
    "from_dict",
    "DEFAULT_MRL_TOL",
    "MRL_QUANTILE_CAP",
]

QUAD_REL_TOL = 1e-9
MRL_REL_TOL = 1e-8
MRL_QUANTILE_CAP = 0.999
DEFAULT_MRL_TOL = 1e-6  # relative to the law's mean
_MRL_GRID_POINTS = 64
_QUAD_LIMIT = 200


class Distribution(ABC):
    """A nonnegative random variable with analytic descriptors."""

    kind: ClassVar[str]

    # -- sampling ---------------------------------------------------------

    @abstractmethod
    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. variates. Identical generator state yields an
        identical array."""

    # -- moments ----------------------------------------------------------

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def second_moment(self) -> float: ...

    # -- tail and transform -----------------------------------------------

    @abstractmethod
    def _ccdf(self, xs: np.ndarray) -> np.ndarray: ...

    def ccdf(self, x):
        """Pr(X > x), strict. Accepts a scalar or an array."""
        arr = np.asarray(x, dtype=float)
        out = self._ccdf(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def tail_inclusive(self, x: float) -> float:
        """Pr(X >= x). Differs from ``ccdf`` only at point masses."""
        return float(self.ccdf(x))

    def pdf(self, x):
        """Density where one exists. Accepts a scalar or an array."""
        arr = np.asarray(x, dtype=float)
        out = self._pdf(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def _pdf(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} has no density")

    def laplace(self, s: float) -> float:
        """E[exp(-s X)] for s >= 0."""
        if s < 0:
            raise ValueError("laplace transform argument must be >= 0")
        return 1.0 if s == 0.0 else self._laplace(s)

    def _laplace(self, s: float) -> float:
        """E[exp(-s X)] for s > 0; by quadrature unless a law overrides it."""
        value, _ = expect(self, lambda x: math.exp(-s * x))
        return min(value, 1.0)

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds of the support; hi may be ``inf``."""

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the ccdf is not smooth, for quadrature splitting."""
        return ()

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Smallest x with Pr(X <= x) >= p, for p in [0, 1)."""

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for f in _dc_fields(self):  # type: ignore[arg-type]
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def describe(self) -> str:
        params = ", ".join(f"{f.name}={getattr(self, f.name)}"
                           for f in _dc_fields(self))  # type: ignore[arg-type]
        return f"{self.kind}({params})"


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate; mean 1/rate."""

    rate: float
    kind: ClassVar[str] = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate}")

    def sample_array(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def mean(self):
        return 1.0 / self.rate

    def second_moment(self):
        return 2.0 / self.rate**2

    def _ccdf(self, xs):
        return np.exp(-self.rate * xs)

    def _pdf(self, xs):
        return self.rate * np.exp(-self.rate * xs)

    def _laplace(self, s):
        return self.rate / (self.rate + s)

    def support(self):
        return (0.0, math.inf)

    def quantile(self, p):
        return -math.log1p(-p) / self.rate


@dataclass(frozen=True)
class ShiftedExponential(Distribution):
    """Constant shift plus an exponential; support [shift, inf)."""

    rate: float
    shift: float
    kind: ClassVar[str] = "shifted_exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not self.shift >= 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")

    def sample_array(self, rng, n):
        return self.shift + rng.exponential(1.0 / self.rate, n)

    def mean(self):
        return self.shift + 1.0 / self.rate

    def second_moment(self):
        # Var = 1/rate^2 around mean shift + 1/rate.
        return 1.0 / self.rate**2 + self.mean() ** 2

    def _ccdf(self, xs):
        return np.where(xs < self.shift, 1.0,
                        np.exp(-self.rate * np.maximum(xs - self.shift, 0.0)))

    def _pdf(self, xs):
        return np.where(xs < self.shift, 0.0,
                        self.rate * np.exp(-self.rate * np.maximum(xs - self.shift, 0.0)))

    def _laplace(self, s):
        return math.exp(-s * self.shift) * self.rate / (self.rate + s)

    def support(self):
        return (self.shift, math.inf)

    def breakpoints(self):
        return (self.shift,) if self.shift > 0 else ()

    def quantile(self, p):
        return self.shift - math.log1p(-p) / self.rate


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass at ``value``. Draws consume no generator state."""

    value: float
    kind: ClassVar[str] = "deterministic"

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"value must be >= 0, got {self.value}")

    def sample_array(self, rng, n):
        return np.full(n, float(self.value))

    def mean(self):
        return float(self.value)

    def second_moment(self):
        return float(self.value) ** 2

    def _ccdf(self, xs):
        return np.where(xs < self.value, 1.0, 0.0)

    def tail_inclusive(self, x):
        return 1.0 if x <= self.value else 0.0

    def _laplace(self, s):
        return math.exp(-s * self.value)

    def support(self):
        return (float(self.value), float(self.value))

    def breakpoints(self):
        return (float(self.value),)

    def quantile(self, p):
        return float(self.value)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform law on [lower, upper], lower >= 0."""

    lower: float
    upper: float
    kind: ClassVar[str] = "uniform"

    def __post_init__(self):
        if not self.lower >= 0:
            raise ValueError(f"lower must be >= 0, got {self.lower}")
        if not self.upper > self.lower:
            raise ValueError(f"upper must exceed lower, got ({self.lower}, {self.upper})")

    def sample_array(self, rng, n):
        return rng.uniform(self.lower, self.upper, n)

    def mean(self):
        return 0.5 * (self.lower + self.upper)

    def second_moment(self):
        a, b = self.lower, self.upper
        return (a * a + a * b + b * b) / 3.0

    def _ccdf(self, xs):
        a, b = self.lower, self.upper
        return np.clip((b - xs) / (b - a), 0.0, 1.0)

    def _pdf(self, xs):
        inside = (xs >= self.lower) & (xs <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)

    def support(self):
        return (self.lower, self.upper)

    def breakpoints(self):
        return (self.lower, self.upper)

    def quantile(self, p):
        return self.lower + p * (self.upper - self.lower)


@dataclass(frozen=True)
class Rayleigh(Distribution):
    """Rayleigh law; ccdf exp(-x^2 / (2 scale^2))."""

    scale: float
    kind: ClassVar[str] = "rayleigh"

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    def sample_array(self, rng, n):
        return rng.rayleigh(self.scale, n)

    def mean(self):
        return self.scale * math.sqrt(math.pi / 2.0)

    def second_moment(self):
        return 2.0 * self.scale**2

    def _ccdf(self, xs):
        return np.exp(-xs * xs / (2.0 * self.scale**2))

    def _pdf(self, xs):
        s2 = self.scale**2
        return (xs / s2) * np.exp(-xs * xs / (2.0 * s2))

    def support(self):
        return (0.0, math.inf)

    def quantile(self, p):
        return self.scale * math.sqrt(-2.0 * math.log1p(-p))


@dataclass(frozen=True)
class Erlang(Distribution):
    """Sum of ``shape`` i.i.d. exponentials with the given rate."""

    shape: int
    rate: float
    kind: ClassVar[str] = "erlang"

    def __post_init__(self):
        if not (isinstance(self.shape, int) and self.shape >= 1):
            raise ValueError(f"shape must be a positive integer, got {self.shape}")
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def sample_array(self, rng, n):
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    def mean(self):
        return self.shape / self.rate

    def second_moment(self):
        return self.shape * (self.shape + 1) / self.rate**2

    def _ccdf(self, xs):
        from scipy import special
        return special.gammaincc(self.shape, self.rate * np.maximum(xs, 0.0))

    def _pdf(self, xs):
        k, lam = self.shape, self.rate
        xs = np.maximum(xs, 0.0)
        if k == 1:
            return lam * np.exp(-lam * xs)
        with np.errstate(divide="ignore"):
            logpdf = (k * math.log(lam) + (k - 1) * np.log(xs)
                      - lam * xs - math.lgamma(k))
        return np.where(xs > 0, np.exp(logpdf), 0.0)

    def _laplace(self, s):
        return (self.rate / (self.rate + s)) ** self.shape

    def support(self):
        return (0.0, math.inf)

    def quantile(self, p):
        from scipy import special
        return float(special.gammaincinv(self.shape, p)) / self.rate


@dataclass(frozen=True)
class Hyperexponential(Distribution):
    """Mixture of two or more exponential phases.

    Included specifically because mixtures of exponentials have increasing
    mean residual life, the regime where the mean-matched M/G ordering
    bound flips direction.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]
    kind: ClassVar[str] = "hyperexponential"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.weights) < 2 or len(self.weights) != len(self.rates):
            raise ValueError("need matching weights/rates with at least two phases")
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"weights must be > 0, got {self.weights}")
        if any(r <= 0 for r in self.rates):
            raise ValueError(f"rates must be > 0, got {self.rates}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")

    def sample_array(self, rng, n):
        w = np.asarray(self.weights)
        r = np.asarray(self.rates)
        idx = rng.choice(len(r), size=n, p=w / w.sum())
        return rng.exponential(1.0 / r[idx])

    def mean(self):
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def second_moment(self):
        return sum(2.0 * w / r**2 for w, r in zip(self.weights, self.rates))

    def _ccdf(self, xs):
        out = np.zeros_like(xs, dtype=float)
        for w, r in zip(self.weights, self.rates):
            out += w * np.exp(-r * xs)
        return out

    def _pdf(self, xs):
        out = np.zeros_like(xs, dtype=float)
        for w, r in zip(self.weights, self.rates):
            out += w * r * np.exp(-r * xs)
        return out

    def _laplace(self, s):
        return sum(w * r / (r + s) for w, r in zip(self.weights, self.rates))

    def support(self):
        return (0.0, math.inf)

    def quantile(self, p):
        if p <= 0.0:
            return 0.0
        # ccdf(x) <= exp(-min_rate * x) gives a valid right bracket.
        hi = -math.log1p(-p) / min(self.rates) + 1.0
        from scipy import optimize
        return float(optimize.brentq(lambda x: self.ccdf(x) - (1.0 - p),
                                     0.0, hi, xtol=1e-12, rtol=8.9e-16))


_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (Exponential, ShiftedExponential, Deterministic, Uniform,
                Rayleigh, Erlang, Hyperexponential)
}


def from_dict(data: Mapping) -> Distribution:
    """Build a distribution from ``{"kind": ..., <params by name>}``."""
    if not isinstance(data, Mapping) or "kind" not in data:
        raise ValueError(f"distribution spec needs a 'kind' field, got {data!r}")
    kind = data["kind"]
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown distribution kind {kind!r}; "
                         f"supported: {sorted(_KINDS)}")
    params = {k: v for k, v in data.items() if k != "kind"}
    names = {f.name for f in _dc_fields(cls)}
    unknown = set(params) - names
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for kind {kind!r}")
    missing = names - set(params)
    if missing:
        raise ValueError(f"missing parameter(s) {sorted(missing)} for kind {kind!r}")
    for k, v in list(params.items()):
        if isinstance(v, list):
            params[k] = tuple(v)
    return cls(**params)


def _segments(lo: float, hi: float, pts: Sequence[float]):
    cuts = [lo, *sorted(p for p in set(pts) if lo < p < hi), hi]
    return zip(cuts[:-1], cuts[1:])


def _integrate_in_units(g: Callable[[float], float], unit: float,
                        lo: float, hi: float, pts: Sequence[float],
                        epsrel: float) -> tuple[float, float]:
    """Integral of ``g(unit * u)`` du over [lo, hi] / unit, split at ``pts``.

    Measuring the variable in units of a law's scale makes QUADPACK place
    its nodes (notably on an unbounded last segment) where the law's mass
    is, and makes the absolute floor ``epsabs`` relative to that scale.
    Returns the value and the summed error estimate.
    """
    from scipy import integrate
    total = 0.0
    err = 0.0
    for a, b in _segments(lo, hi, pts):
        val, e = integrate.quad(lambda u: g(unit * u), a / unit, b / unit,
                                epsrel=epsrel, epsabs=1e-14, limit=_QUAD_LIMIT)
        total += val
        err += e
    return total, err


def expect(dist: Distribution, fn: Callable[[float], float],
           extra_breakpoints: Sequence[float] = ()) -> tuple[float, float]:
    """E[fn(X)] with an error estimate.

    Point masses are evaluated directly; continuous laws integrate
    ``fn * pdf`` piecewise between the breakpoints of the law itself and
    any caller-supplied extra points (typically the kinks of another
    law's ccdf inside the integrand), in units of the law's mean, at the
    fixed relative tolerance ``QUAD_REL_TOL``.
    """
    if isinstance(dist, Deterministic):
        return float(fn(dist.value)), 0.0
    unit = dist.mean()
    lo, hi = dist.support()
    return _integrate_in_units(
        lambda x: fn(x) * dist.pdf(x) * unit, unit, lo, hi,
        tuple(dist.breakpoints()) + tuple(extra_breakpoints), QUAD_REL_TOL)


def mean_residual_life(dist: Distribution, t: float) -> float:
    """m(t) = E[X - t | X > t] = (integral of the ccdf over [t, inf)) / ccdf(t).

    The integral is taken in units of the law's mean, so m(c t) of the law
    rescaled by c is c m(t).  Raises :class:`TailEmpty` when Pr(X > t) = 0.
    """
    if t < 0:
        raise ValueError(f"mean residual life needs t >= 0, got {t}")
    tail = float(dist.ccdf(t))
    if tail <= 0.0:
        raise TailEmpty(f"Pr(X > {t}) = 0 for {dist.describe()}")
    lo, hi = dist.support()
    head = max(lo - t, 0.0)  # region where the ccdf is exactly 1
    a = max(t, lo)
    if a >= hi:
        return head / tail
    unit = dist.mean()
    body, _ = _integrate_in_units(dist.ccdf, unit, a, hi, dist.breakpoints(),
                                  MRL_REL_TOL)
    return (head + unit * body) / tail


class MrlVerdict(str, Enum):
    DMRL = "DMRL"
    IMRL = "IMRL"
    CONSTANT = "ConstantMRL"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MrlClassification:
    """Grid-based MRL verdict and NBUE flag, both read from ``grid``.

    ``grid`` holds the (t, m(t)) pairs; ``tolerance`` is the absolute
    slack applied, ``DEFAULT_MRL_TOL`` times the law's mean.
    """

    verdict: MrlVerdict
    nbue: bool
    grid: tuple[tuple[float, float], ...]
    tolerance: float


def classify_mrl(dist: Distribution) -> MrlClassification:
    """Classify the MRL curve on [0, 0.999-quantile] from one grid.

    The grid has 64 evenly spaced points and every comparison allows a
    slack of ``DEFAULT_MRL_TOL`` times the mean, so rescaling the law's
    time scale leaves the result unchanged.  ``ConstantMRL`` requires
    max - min of the sampled curve within the slack; DMRL/IMRL require
    each consecutive difference within the slack of the monotone
    direction.  ``nbue`` ("new better than used in expectation") is
    m(t) <= mean + slack at every grid point.  Behaviour beyond the
    quantile cap is unverified.
    """
    mean = dist.mean()
    tol = DEFAULT_MRL_TOL * mean
    q = dist.quantile(MRL_QUANTILE_CAP)
    grid = tuple((t, mean_residual_life(dist, t))
                 for t in map(float, np.linspace(0.0, q, _MRL_GRID_POINTS))
                 if float(dist.ccdf(t)) > 0.0)
    values = [m for _, m in grid]
    if len(values) < 2:
        verdict = MrlVerdict.INCONCLUSIVE
    elif max(values) - min(values) <= tol:
        verdict = MrlVerdict.CONSTANT
    else:
        diffs = np.diff(values)
        if np.all(diffs <= tol):
            verdict = MrlVerdict.DMRL
        elif np.all(diffs >= -tol):
            verdict = MrlVerdict.IMRL
        else:
            verdict = MrlVerdict.INCONCLUSIVE
    return MrlClassification(verdict=verdict,
                             nbue=all(m <= mean + tol for m in values),
                             grid=grid, tolerance=tol)
