"""Nonnegative interarrival/service distributions and their descriptors.

The simulator and the closed-form age expressions consume the same small
family of laws. Each law is a frozen dataclass exposing

* exact first and second moments,
* the complementary CDF with the strict convention ``Pr(X > x)``, so a
  point mass at ``v`` satisfies ``ccdf(v) == 0``,
* the Laplace transform ``E[exp(-s X)]`` in closed form,
* seeded sampling through :class:`numpy.random.Generator`,
* its ageing class (:class:`MrlVerdict`), read from its parameters,
* (de)serialization to JSON-ready dicts keyed by a snake_case ``kind`` tag.

Every integral (:func:`expect`) comes from one vectorized panel quadrature:
the range is cut at the law's breakpoints, the caller's breakpoints and a
fixed grid in units of the law's mean (an unbounded last piece is mapped
onto [0, 1)), every panel gets a 20-point Gauss-Legendre rule checked
against a 10-point one in one array call of the integrand, and the panels
whose rules disagree are bisected, all at once, until none is left.
Measuring the variable in units of the mean makes results rescale with
time.  The tolerance is ``QUAD_REL_TOL``, relative, with a floor relative
to the first pass's total; the error estimate is the summed rule
disagreement plus a roundoff floor.  The strict ccdf convention matches
the simulator's tie rule (a completion at exactly an arrival instant
counts as a success), which keeps formula evaluation and event accounting
aligned.

All descriptor methods are pure; sampler state lives entirely in the
caller-supplied generator.  Nothing here needs more than NumPy and
:mod:`math`.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields as _dc_fields
from enum import Enum
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .errors import QuadratureNotConverged

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
    "expect",
    "from_dict",
    "check_pair",
]

QUAD_REL_TOL = 1e-9
_QUAD_FLOOR = 1e-14  # panel error floor, relative to the first round's total
_PANEL_GRID = 4      # panels cut at 1, 2, ..., 4 means
_MAX_DEPTH = 50      # bisection rounds
_MAX_PANELS = 4096   # failing panels in one round
_EPS = float(np.finfo(float).eps)
_RAYLEIGH_SERIES_FROM = 10.0  # z = scale * s above which the series is used


def _over_square(num: float, x: float) -> float:
    """num / x^2 that never raises: inf if x^2 underflows, 0 if it overflows."""
    square = x * x
    return num / square if square else math.inf


class MrlVerdict(str, Enum):
    """Monotonicity of the mean residual life m(t) = E[X - t | X > t]."""

    DMRL = "DMRL"
    IMRL = "IMRL"
    CONSTANT = "ConstantMRL"

    @property
    def nbue(self) -> bool:
        """New better than used in expectation, m(t) <= E[X]: it follows
        from a nonincreasing m, and an increasing one rules it out."""
        return self is not MrlVerdict.IMRL


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
        """Pr(X > x), strict. Accepts a scalar or an array.  Where x times
        a rate, or x over a scale, overflows, the formula takes its limit
        at infinity, without a warning."""
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = self._ccdf(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def tail_inclusive(self, x):
        """Pr(X >= x). Differs from ``ccdf`` only at point masses. Accepts
        a scalar or an array."""
        return self.ccdf(x)

    def pdf(self, x):
        """Density where one exists. Accepts a scalar or an array, and
        overflows as :meth:`ccdf` does."""
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = self._pdf(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def _pdf(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} has no density")

    def laplace(self, s: float) -> float:
        """E[exp(-s X)] for s >= 0."""
        if s < 0:
            raise ValueError("laplace transform argument must be >= 0")
        return 1.0 if s == 0.0 else self._laplace(s)

    @abstractmethod
    def _laplace(self, s: float) -> float:
        """E[exp(-s X)] for s > 0, in closed form."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds of the support; hi may be ``inf``."""

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the ccdf is not smooth, for quadrature splitting."""
        return ()

    @abstractmethod
    def mrl_class(self) -> MrlVerdict:
        """The ageing class of the law over its whole support, read from
        its parameters."""

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
        return _over_square(2.0, self.rate)

    def _ccdf(self, xs):
        return np.exp(-self.rate * xs)

    def _pdf(self, xs):
        return self.rate * np.exp(-self.rate * xs)

    def _laplace(self, s):
        return self.rate / (self.rate + s)

    def support(self):
        return (0.0, math.inf)

    def mrl_class(self):
        return MrlVerdict.CONSTANT


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
        with np.errstate(over="ignore"):  # a draw past the float range is inf
            return self.shift + rng.exponential(1.0 / self.rate, n)

    def mean(self):
        return self.shift + 1.0 / self.rate

    def second_moment(self):
        # Var = 1/rate^2 around mean shift + 1/rate.
        return _over_square(1.0, self.rate) + self.mean() * self.mean()

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

    def mrl_class(self):
        return MrlVerdict.DMRL if self.shift > 0 else MrlVerdict.CONSTANT


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
        return float(self.value) * float(self.value)

    def _ccdf(self, xs):
        return np.where(xs < self.value, 1.0, 0.0)

    def tail_inclusive(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr <= self.value, 1.0, 0.0)
        return float(out) if arr.ndim == 0 else out

    def _laplace(self, s):
        return math.exp(-s * self.value)

    def support(self):
        return (float(self.value), float(self.value))

    def breakpoints(self):
        return (float(self.value),)

    def mrl_class(self):  # m(t) = value - t; vacuous at value 0
        return MrlVerdict.DMRL


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

    def _laplace(self, s):
        # expm1 keeps full precision when s (upper - lower) is tiny.
        width = s * (self.upper - self.lower)
        return math.exp(-s * self.lower) * -math.expm1(-width) / width

    def support(self):
        return (self.lower, self.upper)

    def breakpoints(self):
        return (self.lower, self.upper)

    def mrl_class(self):  # increasing failure rate
        return MrlVerdict.DMRL


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
        return 2.0 * self.scale * self.scale

    # Times in units of the scale's power of two, an exact change of unit:
    # the bits of x^2 / (2 scale^2) wherever it is representable, no
    # overflow or underflow of scale^2, and u^2 = inf far in the tail.
    def _ccdf(self, xs):
        m, e = math.frexp(self.scale)
        u = np.ldexp(xs, -e)
        return np.exp(-u * u / (2.0 * m * m))

    def _pdf(self, xs):  # (x / scale^2) ccdf(x)
        m, e = math.frexp(self.scale)
        return np.ldexp(np.ldexp(xs, -e) / (m * m) * self._ccdf(xs), -e)

    def _laplace(self, s):
        # 1 - z sqrt(pi/2) exp(t^2) erfc(t), z = scale s, t = z / sqrt 2,
        # loses about z^2 eps to cancellation (exp(t^2) < 6e21 here); from
        # z = 10 the asymptotic series 1/z^2 - 3/z^4 + 15/z^6 - ...
        # reaches double precision before its terms start to grow.
        z = self.scale * s
        if z <= _RAYLEIGH_SERIES_FROM:
            t = z / math.sqrt(2.0)
            return 1.0 - z * math.sqrt(math.pi / 2.0) * (
                math.exp(t * t) * math.erfc(t))
        inv = 1.0 / (z * z)
        total, term, k = 0.0, inv, 1
        while abs(term) > _EPS * total:
            total += term
            term *= -(2 * k + 1) * inv
            k += 1
        return total

    def support(self):
        return (0.0, math.inf)

    def mrl_class(self):  # failure rate x / scale^2
        return MrlVerdict.DMRL


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
        return _over_square(self.shape * (self.shape + 1), self.rate)

    def _ccdf(self, xs):
        # Pr(Poisson(t) < shape), t = rate x: the terms e^-t t^i / i! are
        # each at most 1, taken in log space so that none overflows and
        # none underflows before the sum does.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = self.rate * np.maximum(xs, 0.0)
            log_t = np.log(t)
            out = np.exp(-t)
            for i in range(1, self.shape):
                out += np.exp(i * log_t - t - math.lgamma(i + 1))
        return np.where(np.isinf(t), 0.0, out)

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

    def mrl_class(self):  # increasing failure rate from shape 2
        return MrlVerdict.DMRL if self.shape > 1 else MrlVerdict.CONSTANT


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
        with np.errstate(over="ignore"):  # a mean past the float range is inf
            return rng.exponential(1.0 / r[idx])

    def mean(self):
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def second_moment(self):
        return sum(_over_square(2.0 * w, r) for w, r in zip(self.weights, self.rates))

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

    def mrl_class(self):  # decreasing failure rate unless one rate
        return (MrlVerdict.CONSTANT if len(set(self.rates)) == 1
                else MrlVerdict.IMRL)


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
            params[k] = v = tuple(v)
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (v if isinstance(v, tuple) else (v,))):
            raise ValueError(f"parameter {k!r} of kind {kind!r} must be "
                             f"finite, got {v!r}")
    return cls(**params)


def check_pair(interarrival: Distribution, service: Distribution) -> None:
    """Raise ``ValueError`` unless a system with these interarrival and
    service laws has a finite, positive age scale: E[Y] > 0, E[Y^2] finite
    and not underflowing to 0, and E[S] finite."""
    if interarrival.mean() <= 0:  # all arrivals at time 0
        raise ValueError("interarrival law must have a positive mean")
    y2 = interarrival.second_moment()
    if not math.isfinite(y2):
        raise ValueError("interarrival law must have a finite second moment")
    if y2 == 0.0:  # E[Y] > 0, so E[Y^2] > 0 unless it underflows
        raise ValueError("interarrival second moment underflows to 0")
    if not math.isfinite(service.mean()):
        raise ValueError("service law must have a finite mean")


def expect(dist: Distribution, fn: Callable[[np.ndarray], np.ndarray],
           extra_breakpoints: Sequence[float] = ()) -> tuple[float, float]:
    """E[fn(X)] with an error estimate.

    ``fn`` maps an array of points to an array of values (and a float to a
    float, for point masses, which are evaluated directly).  Continuous
    laws integrate ``fn * pdf`` by :func:`_panel_quad`: Gauss-Legendre
    panels cut at the breakpoints of the law itself, any caller-supplied
    extra points (typically the kinks of another law's ccdf inside the
    integrand) and a fixed grid in units of the law's mean, bisected until
    each panel's 20- and 10-point rules agree to ``QUAD_REL_TOL``.  The
    error estimate is the sum of those disagreements plus a roundoff floor
    of 50 machine epsilons times the summed panel magnitudes.
    """
    if isinstance(dist, Deterministic):
        return float(fn(dist.value)), 0.0
    lo, hi = dist.support()
    inner = [p for p in (*dist.breakpoints(), *extra_breakpoints) if lo < p < hi]
    return _panel_quad(lambda x: fn(x) * dist.pdf(x), dist.mean(),
                       sorted({lo, *inner, hi}))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence, from the usual cosine
    guesses, so no LAPACK call (and its workspace) is made.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # quadratic convergence: ample for n <= 20
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _panel_quad(f: Callable[[np.ndarray], np.ndarray], unit: float,
                cuts: Sequence[float]) -> tuple[float, float]:
    """The integral of ``f`` from ``cuts[0]`` to ``cuts[-1]`` (which may be
    ``inf``) over the pieces between the sorted ``cuts``, and an error
    estimate.

    The variable is measured from ``cuts[0]`` in units of ``unit``, so a
    narrow range far from 0 keeps its panel widths exact.  The pieces are
    cut further at the grid 1, 2, ..., ``_PANEL_GRID``, and a last,
    unbounded piece [c, inf) is mapped onto [0, 1) by x = c + u / (1 - u).
    Each round evaluates the 20- and 10-point Gauss-Legendre rules on
    every open panel in one call of ``f``, keeps the panels whose rules
    differ by at most max(``QUAD_REL_TOL`` |G20|, ``_QUAD_FLOOR``
    |first-round total|), and bisects the rest.  The error estimate is the
    kept panels' sum of |G20 - G10| plus 50 eps times their sum of |G20|,
    the roundoff that decides whether a near-zero result is zero.  Raises
    :class:`QuadratureNotConverged` after ``_MAX_DEPTH`` rounds, when
    more than ``_MAX_PANELS`` panels fail in one round, or when a node
    lies past the float range.
    """
    start = float(cuts[0])
    u = (np.asarray(cuts, dtype=float) - start) / unit
    # Row i: piece i's ends with the grid clipped into it, nondecreasing,
    # so consecutive entries are its panels (empty ones dropped).
    ends = np.hstack([u[:-1, None],
                      np.clip(np.arange(1.0, _PANEL_GRID + 1.0),
                              u[:-1, None], u[1:, None]),
                      u[1:, None]])
    a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
    keep = b > a
    a, b = a[keep], b[keep]
    mapped = np.isinf(b)
    origin = a[-1]
    a[mapped], b[mapped] = 0.0, 1.0
    x20, w20 = _gauss_legendre(20)
    x10, w10 = _gauss_legendre(10)
    nodes, weights = np.concatenate([x20, x10]), np.concatenate([w20, w10])
    total = err = mag = 0.0
    floor = None
    for _ in range(_MAX_DEPTH):
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        t = x[mapped]
        x[mapped] = origin + t / (1.0 - t)
        with np.errstate(over="ignore"):
            x *= unit
            x += start
        if np.isinf(x).any():
            raise QuadratureNotConverged(
                "quadrature nodes reach past the float range")
        terms = f(x.ravel()).reshape(x.shape)
        terms[mapped] /= (1.0 - t) ** 2
        terms *= weights
        # Sums, not matrix products: BLAS would allocate its buffers.
        g20 = half * terms[:, :20].sum(1)
        diff = np.abs(g20 - half * terms[:, 20:].sum(1))
        if floor is None:
            floor = _QUAD_FLOOR * abs(g20.sum())
        done = diff <= np.maximum(QUAD_REL_TOL * np.abs(g20), floor)
        total += g20[done].sum()
        err += diff[done].sum()
        mag += np.abs(g20[done]).sum()
        if done.all():
            return float(unit * total), float(unit * (err + 50.0 * _EPS * mag))
        a, b, mapped = (v[~done] for v in (a, b, mapped))
        if a.size > _MAX_PANELS:
            break
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        mapped = np.tile(mapped, 2)
    raise QuadratureNotConverged(
        f"{a.size} quadrature panels still differ by more than "
        f"{QUAD_REL_TOL:g} relative after bisection")
