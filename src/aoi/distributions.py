"""Nonnegative interarrival/service distributions and their descriptors.

The simulator and the closed-form age expressions consume the same small
family of laws. Each law is a frozen dataclass exposing

* exact first and second moments,
* the complementary CDF with the strict convention ``Pr(X > x)``, so a
  point mass at ``v`` satisfies ``ccdf(v) == 0``,
* its mixed-Poisson law, ``poisson_mix(s, j_max)``:
  pi_j = Pr(Poisson(sX) = j) and the tails T_j = sum_{i>j} pi_i, each a
  sum or product of nonnegative terms (pi_0 is the Laplace transform
  E[exp(-sX)], T_0 its complement, pi_1/s = E[X exp(-sX)]),
* seeded sampling through :class:`numpy.random.Generator`,
* its ageing class (:class:`MrlVerdict`), read from its parameters,
* its phase shape, ``phases()``: a shift c and the weights, shapes and
  rates of a mixture of Erlang blocks after it (the exponential law one
  one-phase block, the Erlang law one block, the hyperexponential law
  one-phase blocks, each at c = 0, and SE(r, c) E(r)'s block at c), from
  which one mixture code gives every other descriptor and the sampler;
  ``None`` for every other law,
* its :class:`Residual` at a point t, ``residual(t)``: Pr(X > t), the
  partial moments E[X^k; X <= t], k <= 2, and the residual law
  W = (X - t | X > t), which stays in the family (D, U), is a phase
  shape (the phase laws) or is the Rayleigh law's tail,
* (de)serialization to JSON-ready dicts keyed by a snake_case ``kind`` tag.

One rule checks every law's parameters when it is built, in Python or from
JSON: each law declares its domain in ``_domain``, each parameter's least
value and whether it may equal it, and :class:`Distribution` refuses, by
the parameter's name, anything that is not a finite real number in that
domain (a bool, a string, None, a list or a dict as a number; a non-list
as a tuple field; a non-integer as an ``int`` field).  Only a check that
joins two parameters (Uniform's order, the hyperexponential law's lengths
and sum) stays in the law.

Nothing here integrates.  The strict ccdf convention matches the
simulator's tie rule (a completion at exactly an arrival instant counts as
a success), which keeps formula evaluation and event accounting aligned.

All descriptor methods are pure; sampler state lives entirely in the
caller-supplied generator.  Nothing here needs more than NumPy and
:mod:`math`.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields as _dc_fields
from enum import Enum
from typing import Callable, ClassVar, Mapping, NamedTuple

import numpy as np

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
    "Residual",
    "from_dict",
    "check_pair",
]

# The mixed-Poisson terms are summed and multiplied in NumPy's long double
# (64 bits of mantissa on x86-64), so that neither a rate argument such as
# s/(r+s), rounded once and raised to the j-th power, nor a running product
# of j ratios costs a double's last bits; each result is then rounded once.
_EXT = np.longdouble
_EXT_EPS = float(np.finfo(_EXT).eps)
_EPS = float(np.finfo(float).eps)
_EXP_NORMAL = float(-np.log(np.finfo(_EXT).smallest_normal))  # e^-t normal below
_FORWARD_REACH = 1.5     # w sqrt(m) below which Rayleigh's ratios run forward
_EXTENSION = 64          # pmf terms taken past j_max before the tail is checked
_MAX_TERMS = 1 << 20     # pmf terms past which a tail is taken as it stands


def _over_square(num: float, x: float) -> float:
    """num / x^2 that never raises: num / x / x if x^2 underflows (inf
    only when the quotient overflows), 0 if it overflows."""
    square = x * x
    return num / square if square else num / x / x


def _running(first, ratio: Callable[[np.ndarray], np.ndarray]):
    """terms(size) for :func:`_law`: first, first ratio(1), first ratio(1)
    ratio(2), ..., each a product of nonnegative factors."""
    return lambda size: np.multiply.accumulate(
        np.concatenate(([first], ratio(np.arange(1.0, size)))))


def _above(pmf: np.ndarray) -> np.ndarray:
    """sum_{i>j} pmf_i for each j but the last, summed from the far end."""
    return np.add.accumulate(pmf[::-1])[-2::-1]


def _law(terms: Callable[[int], np.ndarray], j_max: int, whole: bool
         ) -> tuple[np.ndarray, np.ndarray]:
    """The pmf p_0..p_{size-1} = ``terms(size)``, from j = 0 to past j_max,
    and its tails T_j = sum_{i>j} p_i: 1 - head, losing under a bit, where
    the head at j_max is at most 1/2; else, and for the ``whole`` law,
    :func:`_above` once the terms, run on _EXTENSION past j_max and then
    doubling, fall and leave at most p_L^2/(p_{L-1} - p_L), under the
    working precision of the mass past j_max (or reach _MAX_TERMS)."""
    size = j_max + (_EXTENSION if whole else 2)
    while True:
        pmf = terms(size)
        if not whole:
            head = np.add.accumulate(pmf[:j_max + 1])
            if head[-1] <= 0.5:
                return pmf, 1.0 - head
        tail = _above(pmf)
        last, before = pmf[-1], pmf[-2]
        if (not last or size > _MAX_TERMS or (last < before and last * last
                <= _EXT_EPS * (before - last) * tail[j_max])):
            return pmf, tail
        size = 2 * size + _EXTENSION


def _poisson_far(t, size: int) -> np.ndarray:
    """Pr(N = j), j < size, N ~ Poisson(t), where e^-t is not a normal
    number, by Loader's saddle-point form log Pr(N = j) = -(j log(j/t) +
    t - j) - log(2 pi j)/2 - stirlerr(j): log(j/t) as log1p((j-t)/t) for
    j >= t/2 loses eps |j - t|, not eps j log t, and two terms of Stirling's
    series hold stirlerr(j) to a long double wherever a term is a normal
    double, j > t - 38 sqrt(t) > 7000."""
    j = np.arange(1, size, dtype=_EXT)
    d, inv = j - t, 1 / j
    log_ratio = np.where(2 * j < t, np.log(j / t),
                         np.log1p(np.maximum(d / t, -0.5)))
    log_pmf = (d - j * log_ratio - np.log(2 * np.arccos(_EXT(-1)) * j) / 2
               - inv * (_EXT(1) / 12 - inv * inv / 360))
    return np.exp(np.concatenate(([-t], log_pmf)))


def _poisson(t, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Pr(N = j) and Pr(N > j), N ~ Poisson(t), j = 0 to past j_max + 1, by
    :func:`_law`, the whole law for t < j_max + 1, where the head is likely
    past 1/2: running products from e^-t, else :func:`_poisson_far`'s."""
    terms = (_running(np.exp(-t), lambda j: t / j) if t < _EXP_NORMAL
             else functools.partial(_poisson_far, t))
    return _law(terms, j_max, t < j_max + 1)


def _shifted(t, base: tuple[np.ndarray, np.ndarray], j_max: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """The mixed-Poisson law of X + c, t = s c, from X's: a shift adds an
    independent Poisson(t) count, so pi is Poisson(t) convolved with X's,
    and T_j = sum_{i<=j} Pr(Poisson(t) = i) T^X_{j-i} + Pr(Poisson(t) > j)."""
    if not t:
        return base
    pmf, tail = (v[:j_max + 1] for v in _poisson(t, j_max))
    return (np.convolve(pmf, base[0])[:j_max + 1],
            np.convolve(pmf, base[1])[:j_max + 1] + tail)


def _block(n: int, rate, s, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The mixed-Poisson law of Erlang(n, rate) at s, negative binomial:
    pi_j = C(n+j-1, j) q^n x^j, x = s/(rate+s), q = rate/(rate+s).  One
    phase is geometric, with T_j = x^(j+1)."""
    x, q = s / (rate + s), rate / (rate + s)
    if n == 1:
        power = x ** np.arange(j_max + 2.0)
        return q * power[:-1], power[1:]
    first = q ** n
    pmf, tail = _law(_running(first, lambda j: (n - 1 + j) * x / j), j_max,
                     first > 0.5)
    return pmf[:j_max + 1], tail[:j_max + 1]


def _mills(w: float, m: int) -> tuple[float, float, np.ndarray]:
    """I_0, I_1 and u[k] = I_k/I_{k-1}, k = 1..m, of I_k = int_0^inf v^k
    exp(-v^2/2 - w v) dv, w >= 0: u_k = k/(w + u_{k+1}), by parts.  Run
    forward, u_{k+1} = k/u_k - w, an error in u_k grows by about
    1 + w/sqrt(k) a step, so only while w sqrt(m) < 1.5: there I_0 is the
    Mills ratio g from erfc and I_1 = 1 - w g loses under 3 bits.  Else
    Laplace's continued fraction, run backward from depth
    (sqrt(m) + 20/w)^2 + 12, where its tail has settled to the last bit."""
    u = np.empty(m + 1)  # u[k] = u_k
    if w * math.sqrt(m) < _FORWARD_REACH:
        t = w / math.sqrt(2.0)
        g = math.sqrt(math.pi / 2.0) * math.exp(t * t) * math.erfc(t)
        u[1] = 1.0 / g - w
        for k in range(1, m):
            u[k + 1] = k / u[k] - w
        return g, 1.0 - w * g, u
    v = 0.0
    for k in range(int((math.sqrt(m) + 20.0 / w) ** 2) + 12, 0, -1):
        v = k / (w + v)
        if k <= m:
            u[k] = v
    return 1.0 / (w + u[1]), _EXT(u[1]) / (w + u[1]), u


def _rayleigh_mix(scale: float, tau: float, s, j_max: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """pi and T at s of the Rayleigh law's tail past t = tau scale, of
    density (v + tau) exp(-v^2/2 - tau v) in v = W/scale (tau = 0: the
    law).  With z = scale s and I_m at z + tau (:func:`_mills`),
    pi_j = Q_j + tau z Q_{j-1}/j and T_j = z^2 Q_{j-1}/j for
    Q_j = z^j/j! I_{j+1} = Q_{j-1} z u_{j+1}/j; pi_0 = I_1 + tau I_0 and
    T_0 = z I_0.  They are taken at z rounded to a double and moved to the
    exact z, a relative step d, by the first-order terms of
    z dpi_j/dz = j pi_j - (j+1) pi_{j+1} and z dT_j/dz = (j+1) pi_{j+1}."""
    exact = scale * s
    z, m = float(exact), j_max + 2
    if math.isinf(z + tau):  # pi_j ~ (j+1)/z^2: 0 in doubles
        return np.zeros(m), np.ones(m)
    i0, i1, u = _mills(z + tau, m)
    j = np.arange(1, m, dtype=_EXT)
    q = np.multiply.accumulate(np.concatenate(([i1], z * u[2:] / j)))
    pi = q + tau * np.concatenate(([i0], z * q[:-1] / j))
    tail = np.concatenate(([z * i0], z * (z * q[:-2]) / j[:-1]))
    if exact == z or not z:  # z = 0: the terms at exact z are 0 in doubles
        return pi, tail
    d, up = (exact - z) / z, j * pi[1:]  # up_j = (j+1) pi_{j+1}
    return pi[:-1] + d * ((j - 1) * pi[:-1] - up), tail + d * up


def _uniform_base(w, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The mixed-Poisson law of U(0, c) at s, w = s c, N ~ Poisson(w):
    pi_k = Pr(N > k)/w, a pmf since E[N] = w, and T_k = E[(N - k - 1)^+]/w:
    for w >= k + 1, (w - k - 1 + sum_{i<=k} (k+1-i) Pr(N = i))/w, else the
    upward series sum_{i>k} Pr(N > i)/w over :func:`_poisson`'s whole law,
    taken for w < j_max + 2.  In long doubles w = s c is never 0."""
    pmf, tail = _poisson(w, j_max + 1)
    k1 = np.arange(1.0, j_max + 2)
    below = np.add.accumulate(np.add.accumulate(pmf[:j_max + 1]))
    over = np.where(w >= k1, w - k1 + below, _above(tail)[:j_max + 1])
    return tail[:j_max + 1] / w, over / w


def _mixed(terms, s: float, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """pi and T, j <= j_max, at s >= 0 from ``terms(s, j_max)``, which
    gives them for s > 0 in long doubles; each is rounded once."""
    if s < 0:
        raise ValueError("poisson_mix rate must be >= 0")
    if s == 0.0:
        return np.eye(1, j_max + 1)[0], np.zeros(j_max + 1)
    pi, tail = terms(_EXT(s), j_max)
    return pi[:j_max + 1].astype(float), tail[:j_max + 1].astype(float)


class Residual(NamedTuple):
    """X at a point t: Pr(X > t), Pr(X <= t), E[X; X <= t], E[X^2; X <= t]
    and W = (X - t | X > t), the point mass at 0 where Pr(X > t) = 0."""

    ccdf: float
    cdf: float
    below: float
    below_square: float
    mean: float
    second_moment: float
    poisson_mix: Callable[[float, int], tuple[np.ndarray, np.ndarray]]


def _residual(ccdf, cdf, below, below_square, law) -> Residual:
    return Residual(float(ccdf), float(cdf), float(below), float(below_square),
                    float(law.mean()), float(law.second_moment()),
                    law.poisson_mix)


def _less(x: float, t: float):
    """max(x - t, 0) in long doubles, for a parameter of W: rounded to a
    double, it would cost s |x - t| eps in W's mixed-Poisson terms."""
    return max(_EXT(x) - t, _EXT(0))


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


@functools.cache
def _parameters(cls) -> tuple[tuple[str, str, float, bool], ...]:
    """(name, kind, least, closed) for each field of the law class ``cls``,
    read once.  The kind, "float", "int" or "tuple", is the name of the
    field's annotation (a type, or a string under postponed evaluation)
    before any ``[``; least and closed come from ``cls._domain``, any
    finite real where that names none."""
    return tuple((f.name, getattr(f.type, "__name__", f.type).split("[")[0],
                  *cls._domain.get(f.name, (-math.inf, True)))
                 for f in _dc_fields(cls))


def _lack(x, kind: str, least: float, closed: bool) -> str | None:
    """What x lacks as a value of a parameter of this kind and domain, or
    None; a tuple's entries are each a float in the domain.  True is the
    int 1 and inf passes a positivity check, so a bool and a number past
    the float range are refused; an int or a float takes the fast path past
    the ``numbers`` check."""
    if kind == "tuple":
        if not isinstance(x, (list, tuple)):
            return "a list of numbers"
        return next(filter(None, (_lack(e, "float", least, closed) for e in x)), None)
    if type(x) not in (int, float) and (isinstance(x, bool)
                                        or not isinstance(x, numbers.Real)):
        return "a number"
    if not abs(x) <= sys.float_info.max:
        return "finite"
    if kind == "int" and not isinstance(x, numbers.Integral):
        return "an integer"
    if not (x >= least if closed else x > least):
        return f"{'>=' if closed else '>'} {least}"
    return None


class Distribution(ABC):
    """A nonnegative random variable with analytic descriptors."""

    kind: ClassVar[str]
    # Each parameter's least value and whether it may equal it, by name.
    _domain: ClassVar[Mapping[str, tuple[float, bool]]] = {}

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

    def poisson_mix(self, s: float, j_max: int
                    ) -> tuple[np.ndarray, np.ndarray]:
        """pi_j = Pr(Poisson(sX) = j) = E[exp(-sX) (sX)^j/j!] and its tails
        T_j = sum_{i>j} pi_i, j = 0..j_max, for s >= 0, each a sum or
        product of nonnegative terms."""
        return _mixed(self._poisson_mix, s, j_max)

    @abstractmethod
    def _poisson_mix(self, s, j_max: int) -> tuple[np.ndarray, np.ndarray]:
        """pi and T for s > 0, s a long double, in long doubles, from
        j = 0 to j_max or past it."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds of the support; hi may be ``inf``."""

    @abstractmethod
    def residual(self, t: float) -> Residual:
        """The law at the point t >= 0 (:class:`Residual`)."""

    @abstractmethod
    def mrl_class(self) -> MrlVerdict:
        """The ageing class of the law over its whole support, read from
        its parameters."""

    def phases(self) -> tuple[float, tuple[tuple, tuple, tuple]] | None:
        """(c, (w, n, r)) when the law is c plus a mixture of Erlang blocks,
        block i drawn with probability w_i and the sum of n_i exponential
        phases of rate r_i; ``None`` for a law that is not one."""
        return None

    # -- parameters and serialization ---------------------------------------

    def __post_init__(self) -> None:
        """The one parameter check: refuse, by name, a parameter that its
        field's kind and the law's ``_domain`` do not admit (:func:`_lack`),
        store a tuple field as a tuple of floats, then run the law's
        :meth:`_check_joint`."""
        for name, kind, least, closed in _parameters(type(self)):
            v = getattr(self, name)
            if lack := _lack(v, kind, least, closed):
                raise ValueError(f"parameter {name!r} of kind {self.kind!r} "
                                 f"must be {lack}, got {v!r}")
            if kind == "tuple":
                object.__setattr__(self, name, tuple(map(float, v)))
        self._check_joint()

    def _check_joint(self) -> None:
        """Refuse parameters that break a rule joining two of them."""

    # vars(self) holds a law's parameters alone, in the fields' order.
    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: list(v) if isinstance(v, tuple) else v
                                      for name, v in vars(self).items()}}

    def describe(self) -> str:
        params = ", ".join(f"{name}={v}" for name, v in vars(self).items())
        return f"{self.kind}({params})"


def _erlang_ccdf(n: int, rate: float, xs: np.ndarray) -> np.ndarray:
    """Pr(Poisson(t) < n), t = rate x: the terms e^-t t^i / i! are each at
    most 1, taken in log space so that none overflows and none underflows
    before the sum does.  Below t = n/2, where that sum would round up and
    down about 1, it is 1 less Pr(Poisson(t) >= n) instead: e^-t t^n / n!
    times sum_k t^k / ((n+1)...(n+k)), terms that rise with t and each
    under half the one before, summed until they no longer count.  So the
    ccdf stays at most 1 and falls there."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n == 1:  # e^-inf is 0 already
            return np.exp(-rate * np.maximum(xs, 0.0))
        t = rate * np.maximum(xs, 0.0)
        log_t = np.log(t)
        out = np.exp(-t)
        for i in range(1, n):
            out += np.exp(i * log_t - t - math.lgamma(i + 1))
        near = t < 0.5 * n
        if near.any():
            tn, term = t[near], np.ones(np.count_nonzero(near))
            series, i = term.copy(), n
            while term.max() > 0.25 * _EPS:
                i += 1
                term *= tn / i
                series += term
            out[near] = 1.0 - series * np.exp(
                n * log_t[near] - tn - math.lgamma(n + 1))
    return np.where(np.isinf(t), 0.0, out)


class _PhaseMix(Distribution):
    """A law c + B, B a mixture of Erlang blocks, every descriptor and the
    sampler read from its :meth:`~Distribution.phases` alone."""

    def _blocks(self):
        return zip(*self.phases()[1])

    def sample_array(self, rng, n):
        # Block i with chance w_i, then its Erlang draw, plus c; one-phase
        # blocks scale standard exponential draws, which is NumPy's
        # exponential draw without its per-draw broadcast of the scale.
        # The pick counts the entries of the weights' cdf at or below one
        # uniform, the cdf and the uniforms that Generator.choice(p=w/sum w)
        # takes, so it gives that call's picks without its binary search.
        c, (weights, shapes, rates) = self.phases()
        with np.errstate(over="ignore"):  # a draw past the float range is inf
            pick = 0
            if len(weights) > 1:
                w = np.asarray(weights)
                cdf = (w / w.sum()).cumsum()
                cdf /= cdf[-1]
                pick = (cdf[:-1, None] <= rng.random(n)).sum(axis=0)
            scale = (1.0 / np.asarray(rates))[pick]
            out = (scale * rng.standard_exponential(n)
                   if all(k == 1 for k in shapes)
                   else rng.gamma(np.asarray(shapes)[pick], scale, n))
            if c:
                out += c
        return out

    def _block_mean(self):
        return sum(w * n / r for w, n, r in self._blocks())

    def mean(self):
        return self.phases()[0] + self._block_mean()

    def second_moment(self):  # E[(c + B)^2]
        c = self.phases()[0]
        square = sum(_over_square(w * n * (n + 1), r) for w, n, r in self._blocks())
        return c * c + 2 * c * self._block_mean() + square if c else square

    def _ccdf(self, xs):
        xs = xs - self.phases()[0]
        return sum(w * _erlang_ccdf(n, r, xs) for w, n, r in self._blocks())

    def _poisson_mix(self, s, j_max):
        blocks = [(w, _block(n, r, s, j_max)) for w, n, r in self._blocks()]
        mix = (blocks[0][1] if len(blocks) == 1  # of weight 1
               else tuple(sum(w * b[i] for w, b in blocks) for i in (0, 1)))
        return _shifted(s * self.phases()[0], mix, j_max)

    def residual(self, t):
        """Before c, W is the blocks after the shift left.  Past it, W mixes
        the phases left: a block of n phases of rate r has run k < n by t
        with chance Pr(N = k), N ~ Poisson(r (t - c)), and
        E[B^m; B <= t - c] = n..(n+m-1)/r^m Pr(N > n+m-1), moved by c."""
        c, blocks = self.phases()
        if t < c:
            return _residual(1.0, 0.0, 0.0, 0.0, _Blocks((_less(c, t), blocks)))
        left, below = [], np.zeros(3, dtype=_EXT)
        for w, n, r in zip(*blocks):
            pmf, tail = _poisson(r * _less(t, c), n + 1)
            left += [(w * pmf[k], n - k, r) for k in range(n)]
            below += w * np.array([tail[n - 1], n * tail[n] / r,
                                   _over_square(n * (n + 1) * tail[n + 1], r)])
        if c:  # E[(c + B)^m; B <= t - c]
            f, b1, b2 = below
            below = (f, f * c + b1, f * c * c + 2 * c * b1 + b2)
        g = sum(v for v, _, _ in left)
        if not g:
            return _residual(0.0, *below, Deterministic(0.0))
        return _residual(g, *below, _Blocks((0.0, tuple(zip(*(
            (v / g, m, r) for v, m, r in left))))))

    def support(self):
        return (self.phases()[0], math.inf)

    def mrl_class(self):
        # A mixture of distinct exponential phases has a decreasing failure
        # rate, one block from two phases or after a shift an increasing one;
        # no verdict yet names the rest, whose MRL can fall and then rise.
        shape = c, (_, shapes, rates) = self.phases()
        blocks = set(zip(shapes, rates))
        if len(blocks) == 1:
            return (MrlVerdict.CONSTANT if blocks.pop()[0] == 1 and not c
                    else MrlVerdict.DMRL)
        if c or max(shapes) > 1:
            raise ValueError(f"no MRL verdict for the phase shape {shape!r}")
        return MrlVerdict.IMRL


class _Blocks(_PhaseMix):
    """The law of phase shape ``shape``, a residual law of one."""

    def __init__(self, shape):
        self.phases = lambda: shape


@dataclass(frozen=True)
class Exponential(_PhaseMix):
    """Exponential law with the given rate; mean 1/rate.  The mixture of
    one exponential phase."""

    rate: float
    kind: ClassVar[str] = "exponential"
    _domain = {"rate": (0, False)}

    def phases(self):
        return 0.0, ((1.0,), (1,), (self.rate,))


@dataclass(frozen=True)
class ShiftedExponential(_PhaseMix):
    """Constant shift plus an exponential; support [shift, inf).  E(r)'s
    one-phase block after the shift."""

    rate: float
    shift: float
    kind: ClassVar[str] = "shifted_exponential"
    _domain = {"rate": (0, False), "shift": (0, True)}

    def phases(self):
        return self.shift, ((1.0,), (1,), (self.rate,))


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Point mass at ``value``. Draws consume no generator state."""

    value: float
    kind: ClassVar[str] = "deterministic"
    _domain = {"value": (0, True)}

    def sample_array(self, rng, n):
        return np.full(n, float(self.value))

    def mean(self):
        return float(self.value)

    def second_moment(self):
        return float(self.value) * float(self.value)

    def _ccdf(self, xs):
        return np.where(xs < self.value, 1.0, 0.0)

    def _poisson_mix(self, s, j_max):
        return _poisson(s * self.value, j_max)

    def residual(self, t):  # W = D(value - t)
        v = float(self.value)
        if t < v:
            return _residual(1.0, 0.0, 0.0, 0.0, Deterministic(_less(v, t)))
        return _residual(0.0, 1.0, v, v * v, Deterministic(0.0))

    def support(self):
        return (float(self.value), float(self.value))

    def mrl_class(self):  # m(t) = value - t; vacuous at value 0
        return MrlVerdict.DMRL


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform law on [lower, upper], lower >= 0."""

    lower: float
    upper: float
    kind: ClassVar[str] = "uniform"
    _domain = {"lower": (0, True)}

    def _check_joint(self):
        if not self.upper > self.lower:
            raise ValueError(f"upper must exceed lower, got ({self.lower}, {self.upper})")

    def sample_array(self, rng, n):
        return rng.uniform(self.lower, self.upper, n)

    def mean(self):  # halves added only where the sum overflows
        total = self.lower + self.upper
        if math.isfinite(total):
            return 0.5 * total
        return 0.5 * self.lower + 0.5 * self.upper

    def second_moment(self):  # thirds added only where the sum overflows
        a, b = self.lower, self.upper
        total = (a * a + a * b + b * b) / 3.0
        if math.isfinite(total):
            return total
        return a * a / 3.0 + a * b / 3.0 + b * b / 3.0

    def _ccdf(self, xs):
        a, b = self.lower, self.upper
        return np.clip((b - xs) / (b - a), 0.0, 1.0)

    def _poisson_mix(self, s, j_max):  # U(0, b - a) shifted by a
        return _shifted(s * self.lower, _uniform_base(
            s * (self.upper - self.lower), j_max), j_max)

    def residual(self, t):
        """W = U(max(a - t, 0), b - t), and inside [a, b] no cube to
        overflow: F (t + a)/2 and F (t^2 + t a + a^2)/3,
        F = (t - a)/(b - a)."""
        a, b = self.lower, self.upper
        if t <= a:
            return _residual(1.0, 0.0, 0.0, 0.0,
                             Uniform(_less(a, t), _less(b, t)))
        if t >= b:
            return _residual(0.0, 1.0, self.mean(), self.second_moment(),
                             Deterministic(0.0))
        f = (t - a) / (b - a)
        return _residual((b - t) / (b - a), f, f * (t + a) / 2.0,
                         f * (t * t + t * a + a * a) / 3.0,
                         Uniform(0.0, _less(b, t)))

    def support(self):
        return (self.lower, self.upper)

    def mrl_class(self):  # increasing failure rate
        return MrlVerdict.DMRL


@dataclass(frozen=True)
class Rayleigh(Distribution):
    """Rayleigh law; ccdf exp(-x^2 / (2 scale^2))."""

    scale: float
    kind: ClassVar[str] = "rayleigh"
    _domain = {"scale": (0, False)}

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

    def _poisson_mix(self, s, j_max):
        return _rayleigh_mix(self.scale, 0.0, s, j_max)

    def residual(self, t):
        """The tail at tau = t/scale.  X^2/(2 scale^2) is exponential, so
        with N ~ Poisson(tau^2/2), G = Pr(N = 0) and E[X^2; X <= t] =
        2 scale^2 Pr(N > 1), in long doubles.  E[X; X <= t] is
        E[X] - G (t + E[W]) where that loses under a bit, else
        scale tau e^(-tau^2/2) sum_{k>=1} tau^(2k)/(3 5 ... (2k+1))."""
        sigma = self.scale
        tau = _EXT(t) / sigma
        if math.isinf(tau):  # past the double range, where G = 0
            return _residual(0.0, 1.0, self.mean(), self.second_moment(),
                             Deterministic(0.0))
        pmf, tail = _poisson(tau * tau / 2, 1)
        i0, i1, _ = _mills(float(tau), 1)
        upper = pmf[0] * (tau + i0)
        half_pi = np.sqrt(np.arccos(_EXT(-1)) / 2)
        if upper <= half_pi / 2:
            below = half_pi - upper
        else:
            square = tau * tau
            terms, _ = _law(_running(square / 3, lambda k: square / (2 * k + 3)),
                            0, True)
            below = tau * pmf[0] * np.add.reduce(terms)
        return Residual(float(pmf[0]), float(tail[0]), float(sigma * below),
                        float(tail[1] * 2 * sigma * sigma), float(sigma * i0),
                        2.0 * sigma * sigma * float(i1), functools.partial(
                            _mixed, functools.partial(_rayleigh_mix, sigma,
                                                      float(tau))))

    def support(self):
        return (0.0, math.inf)

    def mrl_class(self):  # failure rate x / scale^2
        return MrlVerdict.DMRL


@dataclass(frozen=True)
class Erlang(_PhaseMix):
    """Sum of ``shape`` i.i.d. exponentials with the given rate: one Erlang
    block."""

    shape: int
    rate: float
    kind: ClassVar[str] = "erlang"
    _domain = {"shape": (1, True), "rate": (0, False)}

    def phases(self):
        return 0.0, ((1.0,), (self.shape,), (self.rate,))


@dataclass(frozen=True)
class Hyperexponential(_PhaseMix):
    """Mixture of two or more exponential phases.

    Included specifically because mixtures of exponentials have increasing
    mean residual life, the regime where the mean-matched M/G ordering
    bound flips direction.
    """

    weights: tuple[float, ...]
    rates: tuple[float, ...]
    kind: ClassVar[str] = "hyperexponential"
    _domain = {"weights": (0, False), "rates": (0, False)}

    def _check_joint(self):
        if len(self.weights) < 2 or len(self.weights) != len(self.rates):
            raise ValueError("need matching weights/rates with at least two phases")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")

    def phases(self):
        return 0.0, (self.weights, (1,) * len(self.rates), self.rates)


_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (Exponential, ShiftedExponential, Deterministic, Uniform,
                Rayleigh, Erlang, Hyperexponential)
}


def from_dict(data: Mapping) -> Distribution:
    """Build a distribution from ``{"kind": ..., <params by name>}``.  A
    missing or unknown kind (a non-string one too) and a missing or unknown
    parameter raise ``ValueError`` here; the law itself refuses a value
    outside its parameter's domain."""
    if not isinstance(data, Mapping) or "kind" not in data:
        raise ValueError(f"distribution spec needs a 'kind' field, got {data!r}")
    kind = data["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
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
    return cls(**params)


def check_pair(interarrival: Distribution, service: Distribution) -> None:
    """Raise ``ValueError`` unless a system with these interarrival and
    service laws has a finite, positive age scale: E[Y] > 0, E[Y^2]
    neither overflowing to inf nor underflowing to 0, and E[S] finite."""
    if interarrival.mean() <= 0:  # all arrivals at time 0
        raise ValueError("interarrival law must have a positive mean")
    y2 = interarrival.second_moment()
    if not math.isfinite(y2):
        raise ValueError("interarrival second moment overflows to inf")
    if y2 == 0.0:  # E[Y] > 0, so E[Y^2] > 0 unless it underflows
        raise ValueError("interarrival second moment underflows to 0")
    if not math.isfinite(service.mean()):
        raise ValueError("service law must have a finite mean")
