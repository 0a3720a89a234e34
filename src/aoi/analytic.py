"""Exact average-age evaluation for both disciplines.

Every exact age here and every bound of :mod:`aoi.bounds` is a short
formula over one :class:`Pair` of laws, the interarrival Y and the service
S.  A pair validates itself when it is built and computes each primitive
at most once, on first use: the head E[Y^2]/(2 E[Y]); the success
probability p, the crossing term E[Y Pr(S > Y)] and the completed-service
term E[S | S <= Y], each in closed form; and each discipline's cycle
record.

Both disciplines have one age, :func:`exact_age`:

    E[Y^2]/(2 E[Y]) + (sum_k E[A_k * Pr(S > A_k)]) / E[K] + service term,

K the number of arrivals a cycle consumes, A_k the partial sum of the
first k-1 gaps of a cycle, and the service term E[S] under dropping and
E[S | S <= Y] under preemption.  :meth:`Pair.cycles` alone decides K's
law and returns its :class:`Cycles` record: the path that reached it and
an :class:`Interval` for each of E[K], E[K^2], the crossing sum and
Pr(K = k).  Each producer proves its own half-widths; the ages and bounds
only combine intervals.

Poisson arrivals (path ``closed_form``)
    Dropping with arrivals at rate lam drops Poisson(lam S) of them during
    a service S: E[K] = 1 + lam E[S], E[K^2] = 1 + 3 lam E[S] +
    lam^2 E[S^2] and the crossing sum is lam E[S^2]/2, the M/G/1/1 age
    (Inoue et al., IEEE Trans. Inf. Theory, 2019), and Pr(K = k) is
    pi_{k-1}(lam), the service's ``poisson_mix``.  A block service whose
    E[S^2] overflows takes its block record where that holds.

Erlang blocks and residuals (path ``closed_form``)
    A law whose ``phases()`` is not None (exponential, Erlang,
    hyperexponential) is a mixture of Erlang blocks, block i of weight
    w_i, n_i phases and rate r_i; a shifted exponential is one block
    shifted by c.  With one on either side, p = Pr(S <= Y),
    E[Y Pr(S > Y)] and E[S; S <= Y] are the w-sums of each block's closed
    forms in pi and T, the ``poisson_mix`` at r_i of the other law, or of
    its ``residual`` at c > 0 (:attr:`Pair._terms`; Neuts,
    Matrix-Geometric Solutions in Stochastic Models, 1981).  Pairs of D, U
    and R laws read one law's residuals at the other's points
    (:meth:`Pair._phase_free`).  Under preemption K is geometric in p;
    dividing by p, not 1 - p, gives the M/M/1/1 age 1/lam + 1/mu.  Under
    dropping at other arrivals a block service draws its block once per
    cycle and climbs Poisson(r_i Y) of its phases in a gap, so K's record
    is the w-mix of the blocks' records (:func:`_block_sums`), at n_i = 1
    geometric in p_i = T_0.

Lattice (paths ``lattice`` and ``closed_form``)
    Dropping with any other pair integrates the service ccdf against U,
    the renewal measure of the gaps (an atom at 0 plus the renewal
    function): E[K] against U, the crossing sum against x dU, E[K^2]
    against 2 U*U - U, Pr(K > k) against convolution powers of the gap
    law.  The gaps are rounded down, and separately up, onto a lattice of
    step h = E[Y]/256 that ends where the service keeps at most 1e-13 of
    its mass, and u = delta + f*u is solved by an exponentially tilted
    FFT.  The services left here are bounded (D, U) or light-tailed (SE,
    R), so that cut leaves under 1e-10 of E[S] and of E[S^2].
    A shifted exponential service SE(r, c), c > 0, is one exponential
    block shifted by c: past c its ccdf falls by e^{-r h} a step, so each
    gap a partial sum takes past c multiplies it by the gaps' discounted
    mass L = sum_i f_i e^{-r i h}.  The renewal solve then runs on the J
    points below c alone, and the rest of the lattice folds into
    closed-form weights on them (:func:`_folded`); at c = 0 it is E(r)
    and takes the block record.
    Every lattice sum is one inner product of half spectra, both ends and
    every weight vector of a sum stacked in one transform call.  Two
    transforms of the n lattice points (J when folded) are each built only
    when read.  The renewal transform gives E[K], E[K^2] and the crossing
    sum, once, on the smallest length 2^a, 3 2^a or 5 2^a at least 4n,
    where the tilt keeps both the wrapped mass and the roundoff gain
    small.  The pmf transform is built by each pmf call and then freed:
    Pr(K > k) takes the k-th power of the gap spectrum from a running
    product.  That power lives on [0, k(s-1)], s the gaps' support, so a
    call up to k_max reads only the first m = min(n, k_max (s-1) + 1)
    points, on the smallest such length at least 4m and 8 min(s, m): below
    n no power it reads can wrap at all, and at n the first 8 cannot.
    While every power stays on the lattice, Pr(K > k) is M^k, M an end's
    total gap mass, plus the power against G - 1: exactly M^k where no
    partial sum reaches a point with G < 1.
    Rounding down shrinks every partial sum, so the two solves bracket
    E[K], E[K^2] and each Pr(S > T_k), and the intervals span them.
    x Pr(S > x) is not monotone, but a partial sum of k-1 gaps moves by at
    most (k-1) h, so each solve's crossing sum widened by h E[K(K-1)]/2
    brackets the true one.  Deterministic gaps give the sums in closed
    form up to the last lattice point t; past it the service ccdf G falls,
    so the left-out terms are bounded by the service's stop-loss
    E[(S-t)^+ ((S+t)/2 + E[Y])], read from its residual at t (skipped
    when G(t) = 0, as for bounded services), and Pr(K > k) there by G(t).

Nothing here samples.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Literal, NamedTuple

import numpy as np

from .distributions import (Deterministic, Distribution, Exponential,
                            ShiftedExponential, Uniform, check_pair)
from .errors import TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Discipline

__all__ = [
    "Cycles",
    "Interval",
    "KPmf",
    "Pair",
    "exact_age",
    "k_pmf",
]

_LATTICE_STEPS = 256     # lattice points per mean gap
_MIN_STEPS = 16          # the coarsest lattice before a cycle is too deep
_MAX_LATTICE = 1 << 18   # lattice points per solve: bounds time and memory
_SERVICE_TAIL = 1e-13    # service mass left beyond the lattice
_TOP_STEPS = 64          # truncation points tried per octave
_SNAP = 1e-6             # a breakpoint this close, in steps, is on the lattice
_ALIAS_TILT = 1e-16      # tilt of the FFT's first aliased term


class Interval(NamedTuple):
    """A value and the half-width of the interval known to hold it; the
    fields may be arrays, one interval per element."""

    value: float
    half_width: float

    @classmethod
    def between(cls, a, b) -> Interval:
        """The interval from ``a`` to ``b``, in either order."""
        return cls(0.5 * (a + b), 0.5 * abs(a - b))

    def over(self, den: Interval) -> Interval:
        """self/den and the half-width of its range over both intervals,
        the far end's distance from the ratio taken in one quotient, free
        of cancellation; ``den``'s lower end must be positive."""
        ratio = self.value / den.value
        return Interval(ratio, (self.half_width + abs(ratio) * den.half_width)
                        / (den.value - den.half_width))


@dataclass(frozen=True)
class KPmf:
    """Distribution of K, each probability with its half-width."""

    pmf: tuple[Interval, ...]   # Pr(K = 1), ..., Pr(K = k_max)
    tail_mass: Interval         # Pr(K > k_max)
    k_max: int


class Cycles(NamedTuple):
    """K's law under one discipline, each quantity an interval its
    producer proved, and the path that reached them."""

    path: Literal["lattice", "closed_form"]
    moments: Callable[[], tuple[Interval, Interval]]  # E[K], E[K^2], on call
    crossing: Callable[[], Interval]  # sum_k E[A_k * Pr(S > A_k)], on call
    # k_max -> arrays of Pr(K = k), k = 1..k_max, and Pr(K > k_max)
    pmf: Callable[[int], tuple[Interval, Interval]]

    @property
    def k_mean(self) -> Interval:
        """E[K]."""
        return self.moments()[0]

    @property
    def k_second(self) -> Interval:
        """E[K^2]."""
        return self.moments()[1]


@dataclass(frozen=True)
class Pair:
    """A law pair the estimators can evaluate (else ``ValueError``) and
    the primitives its exact ages and bounds are built from, each computed
    at most once."""

    interarrival: Distribution
    service: Distribution

    def __post_init__(self):
        check_pair(self.interarrival, self.service)

    def to_dict(self) -> dict:
        """Both laws as JSON-ready dicts, keyed by their role."""
        return {"interarrival": self.interarrival.to_dict(),
                "service": self.service.to_dict()}

    @cached_property
    def head(self) -> float:
        """E[Y^2]/(2E[Y]), the first term of every age and bound."""
        return self.interarrival.second_moment() / (2.0 * self.interarrival.mean())

    @cached_property
    def p(self) -> Interval:
        """p = Pr(S <= Y) in closed form (:attr:`_terms`).  Ties count as
        successes, like the simulator's."""
        return Interval(min(self._terms[0], 1.0), 0.0)

    @cached_property
    def _mixes(self) -> tuple[bool, float, tuple, object, list[tuple]] | None:
        """Whether the service (else the gaps) is c plus a mixture of Erlang
        blocks (w_i, n_i, r_i), c, the blocks, the other law's residual at
        c (None at c = 0), and the ``poisson_mix`` of that residual, or of
        the other law at c = 0, at each block's rate up to j = n_i; a phase
        law before a shifted exponential.  None when neither law is one."""
        sides = ((True, self.service, self.interarrival),
                 (False, self.interarrival, self.service))
        for service, law, other in sorted(sides, key=lambda side: isinstance(
                side[1], ShiftedExponential)):
            c, blocks = ((law.shift, ((1.0,), (1,), (law.rate,)))
                         if isinstance(law, ShiftedExponential)
                         else (0.0, law.phases()))
            if blocks is not None:
                rest = other.residual(c) if c else None
                mix = (other if rest is None else rest).poisson_mix
                return service, c, blocks, rest, [
                    mix(r, n) for n, r in zip(*blocks[1:])]
        return None

    @cached_property
    def _terms(self) -> tuple[float, float, float]:
        """p = Pr(S <= Y), E[Y Pr(S > Y)] and E[S; S <= Y]: without a block
        law from :meth:`_phase_free`, else the w-sums of the blocks' terms,
        in pi and T of the other law X, or of its residual at c with
        G = Pr(X > c).  A block B of shape n and rate r, with
        P = pi_0 + ... + pi_{n-1} and h = sum_{j<n} (j+1) pi_{j+1}/r, has
        Pr(c + B <= X) = G T_{n-1},
        E[X; X < c + B] = E[X; X <= c] + G (c P + h) and
        E[c + B; c + B <= X] = G (c T_{n-1} + (n/r) T_n); as gaps it has
        p = Pr(X <= c) + G P and the last two swap."""
        if self._mixes is None:
            return self._phase_free()
        service, c, (w, shapes, rates), rest, mixes = self._mixes
        ccdf, cdf, below = (1.0, 0.0, 0.0) if rest is None else rest[:3]
        terms = []
        for n, r, (pi, tail) in zip(shapes, rates, mixes):
            h = float(np.arange(1.0, n + 1.0) @ pi[1:]) / r
            head, done = float(pi[:n].sum()), float(tail[n - 1])
            block = ccdf * (c * done + n * float(tail[n]) / r)
            other = below + ccdf * (c * head + h)
            terms.append((ccdf * done, other, block) if service
                         else (cdf + ccdf * head, block, other))
        return tuple(sum(a * t[i] for a, t in zip(w, terms)) for i in range(3))

    def _phase_free(self) -> tuple[float, float, float]:
        """The terms for two laws of D, U and R.  D(v) gaps: Pr(S <= v),
        v G_S(v), E[S; S <= v]; D(v) service: G_Y(v), E[Y; Y <= v],
        v G_Y(v).  U(a, b) against X needs int_a^b of G, t G,
        E[X; X <= t] and Pr(X <= t), over b - a.  Each is c + f(a) - f(b)
        for an integral f of X's residual at t from above or from below,
        in the form whose three terms add up smallest: f = G E[W] or
        -E[min(X, t)] = -(t G + E[X; X <= t]) for G; G (E[W^2]/2 + t E[W])
        or -E[min(X, t)^2]/2 for t G; c = (b - a) E[X] and
        f = -G (E[W^2] + t E[W]), or f = E[X^2; X <= t] - t E[X; X <= t],
        for E[X; X <= t]; c = b - a and f = -G E[W], or
        f = E[X; X <= t] - t Pr(X <= t), for Pr(X <= t).  R/R is Gaussian:
        with sigma^-2 = sigma_Y^-2 + sigma_S^-2, sigma_Y^2/(sigma_Y^2 +
        sigma_S^2) and sqrt(pi/2) sigma^3 over sigma_Y^2 and sigma_S^2."""
        y, s = self.interarrival, self.service
        if isinstance(y, Deterministic):
            at = s.residual(y.value)
            return at.cdf, y.value * at.ccdf, at.below
        if isinstance(s, Deterministic):
            at = y.residual(s.value)
            return at.ccdf, at.below, s.value * at.ccdf
        if isinstance(s, Uniform) or isinstance(y, Uniform):
            u, x = (s, y) if isinstance(s, Uniform) else (y, s)
            a, b = u.lower, u.upper
            ends = ((x.residual(a), a), (x.residual(b), b))

            def over_w(*forms) -> float:  # (c + f(a) - f(b))/(b - a)
                terms = [(c, f(*ends[0]), -f(*ends[1])) for c, f in forms]
                return math.fsum(min(terms, key=lambda t: sum(map(abs, t)))
                                 ) / (b - a)
            ccdf = over_w((0.0, lambda r, t: r.ccdf * r.mean),
                          (0.0, lambda r, t: -t * r.ccdf - r.below))
            tg = over_w((0.0, lambda r, t: r.ccdf * (0.5 * r.second_moment
                                                     + t * r.mean)),
                        (0.0, lambda r, t: -0.5 * (t * t * r.ccdf
                                                   + r.below_square)))
            below = over_w(((b - a) * x.mean(), lambda r, t: -r.ccdf * (
                r.second_moment + t * r.mean)),
                           (0.0, lambda r, t: r.below_square - t * r.below))
            if u is s:
                return ccdf, below, tg
            return over_w((b - a, lambda r, t: -r.ccdf * r.mean),
                          (0.0, lambda r, t: r.below - t * r.cdf)), tg, below
        vy, vs = y.scale * y.scale, s.scale * s.scale
        k = math.sqrt(math.pi / 2.0) * y.scale * s.scale / math.sqrt(vy + vs)
        return vy / (vy + vs), k * (vs / (vy + vs)), k * (vy / (vy + vs))

    @cached_property
    def crossing(self) -> Interval:
        """E[Y Pr(S > Y)] in closed form; over p^2, the crossing sum of a
        geometric K."""
        return Interval(self._terms[1], 0.0)

    @cached_property
    def completed_service(self) -> Interval:
        """E[S | the service completes] = E[S Pr(Y >= S)] / p in closed
        form; raises :class:`ZeroSuccessProbability` when no service can
        complete."""
        if self.p.value <= 0.0:
            raise ZeroSuccessProbability(self._no_success())
        return Interval(self._terms[2], 0.0).over(self.p)

    def service_term(self, discipline: Discipline) -> Interval:
        """The age's last term: E[S] under dropping, E[S | S <= Y] under
        preemption."""
        if discipline is Discipline.PREEMPTION:
            return self.completed_service
        return Interval(self.service.mean(), 0.0)

    def cycles(self, discipline: Discipline) -> Cycles:
        """K's record under ``discipline``, on the module docstring's path."""
        if discipline is Discipline.PREEMPTION:
            return self._geometric_cycles()
        if isinstance(self.interarrival, Exponential) and (
                math.isfinite(self.service.second_moment())
                or not self._blocks_hold):
            return self._poisson_cycles()
        return self._dropping

    @cached_property
    def _blocks_hold(self) -> bool:
        """Whether the service's Erlang blocks keep their dropping record in
        the float range: at most 1/T_0 gaps a phase bound E[K^2] and the
        crossing sum by about 2 (n/T_0)^2 and E[Y] (n/T_0)^2."""
        if self.service.phases() is None:
            return False
        _, _, (_, shapes, _), _, mixes = self._mixes
        return min(tail[0] for _, tail in mixes) ** 2 * sys.float_info.max >= (
            2.0 * max(1.0, self.interarrival.mean()) * max(shapes) ** 2)

    @cached_property
    def _dropping(self) -> Cycles:
        """The service blocks' dropping record, else the lattice's.  A
        shifted exponential is one exponential block shifted by c: at c = 0
        it takes that block's record, else the lattice folded at c."""
        s = self.service
        if isinstance(s, ShiftedExponential):
            if not s.shift:
                return Pair(self.interarrival, Exponential(s.rate))._dropping
            return _lattice_cycles(self.interarrival, s, (s.rate, s.shift))
        if s.phases() is None:
            return _lattice_cycles(self.interarrival, s)
        if not self._blocks_hold:
            raise TruncationNotReached(self._no_success())
        _, _, (w, shapes, rates), _, mixes = self._mixes
        k_mean, k_second, crossing = (Interval(float(v), 0.0) for v in np.dot(
            w, [_block_sums(*m, n, r) for m, n, r in zip(mixes, shapes, rates)]))

        def pmf(k_max: int) -> tuple[Interval, Interval]:
            probs, tail = zip(*(_block_pmf(*m, n, k_max)
                                for m, n in zip(mixes, shapes)))
            return (Interval(np.dot(w, probs), np.zeros(k_max)),
                    Interval(float(np.dot(w, tail)), 0.0))
        return Cycles("closed_form", lambda: (k_mean, k_second),
                      lambda: crossing, pmf)

    def _poisson_cycles(self) -> Cycles:
        """The dropping record at exponential arrivals: exact sums, which
        raise :class:`TruncationNotReached` when E[K^2] overflows, and
        Pr(K = k) = pi_{k-1} of the service at the arrival rate."""
        lam, m1 = self.interarrival.rate, self.service.mean()
        m2 = self.service.second_moment()
        k_second = 1.0 + 3.0 * lam * m1 + lam * lam * m2

        def exact(value: float) -> Interval:
            if not math.isfinite(k_second):
                raise TruncationNotReached(
                    f"E[K^2] overflows: E[S^2] = {m2!r}, arrival rate {lam!r}")
            return Interval(value, 0.0)

        def pmf(k_max: int) -> tuple[Interval, Interval]:
            pi, tail = self.service.poisson_mix(lam, k_max - 1)
            return Interval(pi, np.zeros(k_max)), Interval(float(tail[-1]), 0.0)
        return Cycles("closed_form",
                      lambda: (exact(1.0 + lam * m1), exact(k_second)),
                      lambda: exact(0.5 * lam * m2), pmf)

    def _geometric_cycles(self) -> Cycles:
        """Preemption's K, geometric in p.  Where E[K^2] or the crossing
        sum, about 2/p^2 and E[Y]/p^2, could overflow, it raises
        :class:`ZeroSuccessProbability`."""
        p = self.p.value
        if p <= 0.0 or p * p * sys.float_info.max < 2.0 * max(
                1.0, self.interarrival.mean()):
            raise ZeroSuccessProbability(self._no_success())
        moments = Interval(1.0 / p, 0.0), Interval((2 - p) / p**2, 0.0)
        crossing = Interval(self.crossing.value / p**2, 0.0)

        def pmf(k_max: int) -> tuple[Interval, Interval]:
            power = (1.0 - p) ** np.arange(k_max + 1.0)
            return (Interval(p * power[:-1], np.zeros(k_max)),
                    Interval(power[-1], 0.0))
        return Cycles("closed_form", lambda: moments, lambda: crossing, pmf)

    def _no_success(self) -> str:
        return (f"Pr(success) = {self.p.value:.4g} for interarrival "
                f"{self.interarrival.describe()} "
                f"vs service {self.service.describe()}")


def _block_sums(pi: np.ndarray, tail: np.ndarray, n: int, rate: float
                ) -> tuple[float, float, float]:
    """E[K], E[K^2] and the crossing sum under dropping for one service
    block, Erlang(n, rate), from pi and T of the gaps at the rate.
    A gap moves the block's phase up by Poisson(rate Y), so with N the
    shift matrix Pr(K > k) = e_1 M^k 1 for M = sum_{j<n} pi_j N^j, upper
    triangular Toeplitz, and such matrices multiply as power series cut to
    n terms.  b, the first row of (I - M)^-1, is b_0 = 1/T_0 and
    b_k = sum_{i=1..k} pi_i b_{k-i}/T_0, so E[K] = sum b,
    E[K^2] = 2 sum(pi * b * b) + E[K] and the crossing sum is sum(b * b * m),
    m_j = (j+1) pi_{j+1}/rate the gaps' E[Y Pr(Poisson(rate Y) = j)]: every
    term nonnegative, and at n = 1 the geometric 1/p, (2-p)/p^2 and c/p^2."""
    b = np.empty(n)
    b[0] = 1.0 / tail[0]
    for k in range(1, n):
        b[k] = (pi[1:k + 1] @ b[k - 1::-1]) / tail[0]
    # sum(a * bb), cut to n terms, is a . (the partial sums of bb, reversed)
    sums = np.add.accumulate(np.convolve(b, b)[:n])[::-1]
    k_mean = float(np.add.reduce(b))
    return (k_mean, 2.0 * float(pi[:n] @ sums) + k_mean,
            float((np.arange(1.0, n + 1.0) * pi[1:]) @ sums) / rate)


def _block_pmf(pi: np.ndarray, tail: np.ndarray, n: int, k_max: int
               ) -> tuple[np.ndarray, float]:
    """Pr(K = k), k = 1..k_max, and Pr(K > k_max) for one service block
    (:func:`_block_sums`): Pr(K = k) = e_1 M^(k-1) (I - M) 1, the first row
    of M^(k-1), pi's (k-1)-th convolution power cut to n terms, against the
    chances T_{n-1-i} that phase i completes within a gap."""
    power, exits = np.eye(1, n)[0], tail[n - 1::-1]
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = power @ exits
        power = np.convolve(power, pi[:n])[:n]
    return out, float(power.sum())


def _truncation_point(service: Distribution) -> float:
    """The end of a bounded support, else the first point E[S] 2^(j/64),
    j an integer, where Pr(S > x) <= 1e-13: at most 1.1% past the exact
    quantile, and in units of E[S], so it rescales with time.

    The octave comes from doubling or halving E[S], the 1/64ths of it from
    one array call of the ccdf.  A tail that reaches past the float range
    raises :class:`TruncationNotReached`.
    """
    hi = service.support()[1]
    if math.isfinite(hi):
        return hi
    x = service.mean()
    while service.ccdf(x) > _SERVICE_TAIL:
        x *= 2.0
    if math.isinf(x):
        raise TruncationNotReached(
            f"the tail of {service.describe()} reaches past the float range")
    while service.ccdf(0.5 * x) <= _SERVICE_TAIL:
        x *= 0.5
    tries = 0.5 * x * np.exp2(np.arange(1, _TOP_STEPS + 1) / _TOP_STEPS)
    return float(tries[np.argmax(service.ccdf(tries) <= _SERVICE_TAIL)])


def _lattice_cycles(interarrival: Distribution, service: Distribution,
                    block: tuple[float, float] | None = None) -> Cycles:
    """The dropping record spanning the sums with every gap rounded down,
    then up, to the lattice jh, h = E[Y]/m, up to :func:`_truncation_point`.

    m halves from 256 until at most 2^18 points remain; below 16 the cycle
    is too deep (:class:`TruncationNotReached`).  A service breakpoint
    within rounding of a lattice point (the D value, the SE shift) is
    evaluated there exactly, keeping its tie rule at every time scale.
    With ``block`` = (r, c) the service is c plus an exponential of rate
    r, and the lattice past c folds into closed-form weights
    (:func:`_folded`).  The record keeps the gap cells and the weights;
    E[K], E[K^2] and the crossing sum come from one renewal solve on first
    read, and each pmf call builds its own transform and frees it.
    """
    top = _truncation_point(service)
    point_mass = isinstance(interarrival, Deterministic)
    m = 1 if point_mass else _LATTICE_STEPS
    while True:
        h = interarrival.mean() / m
        steps = top / h  # inf when the cycle outgrows the float range
        if steps < _MAX_LATTICE - 1:
            break
        if m <= _MIN_STEPS:
            raise TruncationNotReached(
                f"a cycle spans {steps:.4g} lattice steps, more than "
                f"{_MAX_LATTICE}; the expected arrivals-per-cycle count is "
                "too large to resolve")
        m //= 2
    n = int(steps) + 2
    grid = h * np.arange(n + 1)
    x = grid[:n].copy()
    for b in service.breakpoints():
        j = round(b / h)
        if j < n and abs(x[j] - b) <= _SNAP * h:
            x[j] = b
    if point_mass:  # U has one atom per lattice point; T_k = k E[Y]
        path = "closed_form"
        c = service.ccdf(x)
        first = 1.0 - float(c[0])  # Pr(K >= 1) = 1 whatever the service

        @cache
        def solved() -> tuple[Interval, Interval, Interval]:
            # Pr(S > x) falls, so it is 0 past a last point where it is 0.
            beyond = (_beyond_top(service, float(x[-1]), h) if c[-1]
                      else (0.0,) * 3)
            return (Interval(float(first + c.sum()), beyond[0]),
                    Interval(float(first + (2.0 * np.arange(n) + 1.0) @ c),
                             beyond[1]),
                    Interval(float(x @ c), beyond[2]))

        def survival(k_max: int) -> tuple[np.ndarray, np.ndarray]:
            # Pr(K > k) = Pr(S > k E[Y]) <= c[-1] past the last point
            kept = np.concatenate(([1.0], c[1:], np.zeros(k_max)))[:k_max + 1]
            beyond = np.zeros(k_max + 1)
            beyond[n:] = c[-1]
            return kept - beyond, kept + beyond
    else:
        path = "lattice"
        tail = interarrival.ccdf(grid)
        cell = tail[:-1] - tail[1:]  # Pr(jh < Y <= (j+1)h)
        gaps = np.stack((cell, np.append(0.0, cell[:-1])))  # rounded down, up
        sums, survival = (_folded(gaps, tail, x, h, *block) if block
                          else _full(gaps, tail, x, service.ccdf(x)))

        @cache
        def solved() -> tuple[Interval, Interval, Interval]:
            (k_down, k_up), (k2_down, k2_up), (c_down, c_up) = np.array(
                sums()).tolist()
            # A partial sum of k-1 gaps moves by at most (k-1) h, so each
            # end's crossing sum widened by h E[K(K-1)]/2 brackets the
            # true one; E[K(K-1)] >= 0, whatever the roundoff.
            lo = c_up - 0.5 * h * max(k2_up - k_up, 0.0)
            hi = c_down + 0.5 * h * max(k2_down - k_down, 0.0)
            mid = 0.5 * (c_down + c_up)
            return (Interval.between(k_down, k_up),
                    Interval.between(k2_down, k2_up),
                    Interval(mid, max(mid - lo, hi - mid)))

    def pmf(k_max: int) -> tuple[Interval, Interval]:
        # Pr(K = k) = Pr(K > k-1) - Pr(K > k), the half-widths added
        mid, hw = Interval.between(*survival(k_max))
        return (Interval(mid[:-1] - mid[1:], hw[:-1] + hw[1:]),
                Interval(mid[-1], hw[-1]))
    return Cycles(path, lambda: solved()[:2], lambda: solved()[2], pmf)


def _full(gaps: np.ndarray, tail: np.ndarray, x: np.ndarray, c: np.ndarray):
    """Each end's E[K], E[K^2] and crossing sum (on call) and its
    Pr(K > k), k = 0..k_max, from the service ccdf ``c`` at every lattice
    point ``x``, ``tail`` the gap ccdf on the grid."""
    n = c.size
    first = 1.0 - float(c[0])  # Pr(K >= 1) = 1 whatever the service
    mass = tail[0] - tail[[n, n - 1]]  # each end's total gap mass M
    longest = _support(gaps) - 1  # in lattice steps

    def sums() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        once, twice = _renewal_sums(gaps, np.stack((c, x * c)))
        return first + once[:, 0], first + twice, once[:, 1]

    def survival(k_max: int) -> np.ndarray:
        # While k_max gaps stay on the lattice, Pr(K > k) is M^k plus f^{*k}
        # against G - 1, exactly M^k where no partial sum reaches G < 1;
        # past that, f^{*k} against G, taken as 0 beyond the lattice.
        if k_max * longest < n:
            out = (mass[:, None] ** np.arange(k_max + 1.0)
                   + _survival(gaps, (c - 1.0)[None], k_max)[:, 0])
        else:
            out = _survival(gaps, c[None], k_max)[:, 0]
        out[:, 0] = 1.0
        return out
    return sums, survival


def _folded(gaps: np.ndarray, tail: np.ndarray, x: np.ndarray, h: float,
            rate: float, shift: float):
    """:func:`_full`'s sums for the service shift + Exp(rate), shift > 0,
    from a renewal solve on the J = max(1, #{x_l < shift}) head points
    alone.

    Past x_J, G(x_l) = e^{-rate o} q^(l-J), o = x_J - shift and
    q = e^{-rate h}, so a cycle's partial sums past the head add the
    geometric factor L = sum_i f_i q^i per gap.  With D_m and E_m, the
    sums of f_i q^(i-m) and of (i-m) f_i q^(i-m) over i >= m, taken by
    doubling with every factor q^w at most 1, kappa_l = e^{-rate o} D_(J-l) is
    the head point l's next G past the head, and with g = 1/(1 - L),
    L_1 = h E_0 and kappa x_l = e^{-rate o} (o D_(J-l) + h E_(J-l)):
    E[K] = sum u_l (1 + g kappa_l),
    E[K^2] = sum (2 w_l - u_l)(1 + g kappa_l) + 2 g^2 sum u_l kappa_l and
    the crossing sum = sum u_l (x_l + g (shift kappa_l + kappa x_l)
    + g^2 L_1 kappa_l), u = delta + f*u and w = u*u on the head.
    Pr(K > k) = M^k + tau_k - beta_k, tau_k = sum_(l >= J) f^{*k}_l G(x_l)
    and beta_k the mass of f^{*k} past the head, are the recursions
    tau_k = L tau_(k-1) + sum_l f^{*(k-1)}_l kappa_l and
    beta_k = M beta_(k-1) + sum_l f^{*(k-1)}_l F_(J-l), F_m the gap mass
    from m on."""
    n = x.size
    head = max(1, int(np.searchsorted(x, shift)))
    f = gaps[:, :head]
    far = np.arange(n - head)
    lag = np.exp(-rate * h * far)
    disc = np.zeros((2, 2, head + 1))  # D and E of each end, m = 0..J
    disc[0, :, :head] = f
    disc[:, :, head] = (gaps[:, head:] @ np.stack((lag, far * lag), 1)).T
    w = 1
    while w <= head:  # sums over [m, m + w) become sums over [m, m + 2w)
        part = disc[:, :, w:] * math.exp(-rate * h * w)
        part[1] += w * part[0]
        disc[:, :, :-w] += part
        w *= 2
    d, e = disc
    big_l, g = d[:, 0], 1.0 / (1.0 - d[:, 0])
    o = float(x[head]) - shift
    kappa = math.exp(-rate * o) * d[:, :0:-1]
    kappa_x = math.exp(-rate * o) * (o * d[:, :0:-1] + h * e[:, :0:-1])
    mass = tail[0] - tail[[n, n - 1]]  # each end's total gap mass M
    rest = np.stack((tail[head:0:-1] - tail[n],
                     tail[head - 1::-1] - tail[n - 1]))  # F_(J-l)

    def sums() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g1, big_l1 = g[:, None], h * e[:, :1]  # L_1 = h E_0
        once, twice = _renewal_sums(f, np.stack((
            1.0 + g1 * kappa,
            x[:head] + g1 * (shift * kappa + kappa_x)
            + g1 * g1 * big_l1 * kappa,
            kappa), axis=1))
        return once[:, 0], twice + 2.0 * g * g * once[:, 2], once[:, 1]

    def survival(k_max: int) -> np.ndarray:
        heads = _survival(f, np.stack((kappa, rest), axis=1), k_max - 1)
        factors = np.stack((big_l, mass), axis=1)
        out = mass[:, None] ** np.arange(k_max + 1.0)
        tau_beta = np.zeros((2, 2))
        for k in range(1, k_max + 1):
            tau_beta = factors * tau_beta + heads[..., k - 1]
            out[:, k] += tau_beta[:, 0] - tau_beta[:, 1]
        return out
    return sums, survival


def _beyond_top(service: Distribution, t: float, d: float
                ) -> tuple[float, float, float]:
    """Bounds on the terms G(jd), (2j+1) G(jd) and jd G(jd), jd > t, that
    the D-arrival sums of E[K], E[K^2] and the crossing sum leave out past
    their last point t = (n-1) d, G the service ccdf.

    G falls, so each term is at most the mean of G(x), (2x+3d) G(x)/d or
    (x+d) G(x) over the step before it.  The service's stop-loss beyond t
    B = int_t^inf (x+d) G(x) dx = G(t) (E[W^2]/2 + (t+d) E[W]), W the
    service's residual at t, bounds all three: int_t^inf G <= B/(t+d)
    gives B/((t+d) d), 2B/d^2 + B/((t+d) d) and B/d, for any service law."""
    at = service.residual(t)
    b = at.ccdf * (0.5 * at.second_moment + (t + d) * at.mean) / d
    k_mean = b / (t + d)
    return k_mean, 2.0 * b / d + k_mean, b


def _fft_size(n: int) -> int:
    """The smallest 2^a, 3 2^a or 5 2^a at least ``n``: a length the FFT
    factors into radices 2 and 3 or 5, under 4n/3, where the next power of
    two can reach 2n."""
    return min(r << (-(-n // r) - 1).bit_length() for r in (1, 3, 5))


def _tilted(n: int, size: int):
    """``weigh`` and ``spectrum`` of the tilted FFT of length ``size`` over
    ``n`` lattice points, each along the last axis.

    Tilting a gap law by rho^j, rho^(size+n) = _ALIAS_TILT, makes the mass
    a circular convolution wraps into the first n points at most
    rho^size <= 1e-16^(4/5) of it for size >= 4n, and the roundoff the
    untilting 1/rho^j multiplies at most rho^-n <= 1e16^(1/5) = 1585.  A
    lattice sum is then an inner product of half spectra (Parseval): a
    spectrum against ``weigh`` of the weights, conjugated (:func:`_totals`).
    """
    tilt = np.exp(np.arange(n) * (math.log(_ALIAS_TILT) / (size + n)))
    untilt = (2.0 / size) / tilt

    def weigh(w):
        out = np.fft.rfft(w * untilt, size)
        out[..., 0] *= 0.5  # the half spectrum holds these bins once
        out[..., -1] *= 0.5
        return np.conjugate(out, out=out)

    return weigh, lambda f: np.fft.rfft(f * tilt, size)


def _totals(weights: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The lattice sum of each end's ``spectrum`` row against each row of
    ``weights`` (from ``weigh``, shared by the ends or one set per end)."""
    return (weights @ spectrum[..., None])[..., 0].real


def _renewal_sums(gaps: np.ndarray, weights: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """sum_l u_l v_l for the renewal measure u = delta + f*u of each end's
    gap cells f (a row of ``gaps``) and each row v of ``weights`` (shared
    by the ends or one set per end), and sum_l (2w - u)_l v_l, w = u*u, for
    the first row v, on the smallest FFT length >= 4n."""
    weigh, spectrum = _tilted(gaps.shape[-1], _fft_size(4 * gaps.shape[-1]))
    by = weigh(weights)
    renewal = spectrum(gaps)
    np.subtract(1.0, renewal, out=renewal)
    np.reciprocal(renewal, out=renewal)  # u = delta + f*u
    square = 2.0 * renewal  # 2 u*u - u, built in place
    square -= 1.0
    square *= renewal
    return _totals(by, renewal), _totals(by[..., :1, :], square)[:, 0]


def _support(gaps: np.ndarray) -> int:
    """One past the last non-zero gap cell of either end."""
    cells = np.flatnonzero(gaps.any(axis=0))
    return int(cells[-1]) + 1 if cells.size else 0


def _survival(gaps: np.ndarray, weights: np.ndarray, k_max: int
              ) -> np.ndarray:
    """sum_l f^{*k}_l v_l, k = 0..k_max, for each end's gap cells f (a row
    of ``gaps``) and each row v of ``weights`` (shared by the ends or one
    set per end): the k-th convolution power, its spectrum a running
    product.

    With s one past the last non-zero gap cell, the k-th power lives
    on [0, k(s-1)], so the sums read only the first
    m = min(n, max(1, k_max (s-1) + 1)) points of the weights and of the
    gaps.  The length is the smallest FFT length >= max(4m, 8 min(s, m)):
    when m < n no power up to k_max reaches past m, so none wraps at all;
    else the first 8 powers never wrap, and later ones wrap only their
    tilted-away far tail."""
    s = _support(gaps)
    m = min(weights.shape[-1], max(1, k_max * (s - 1) + 1))
    weigh, spectrum = _tilted(m, _fft_size(max(4 * m, 8 * min(s, m))))
    by = weigh(weights[..., :m])
    step = spectrum(gaps[:, :m])
    out = np.empty((gaps.shape[0], by.shape[-2], k_max + 1))
    out[..., 0] = weights[..., 0]
    power = np.ones_like(step)
    for k in range(1, k_max + 1):
        power *= step
        out[..., k] = _totals(by, power)
    return out


def exact_age(pair: Pair, discipline: Discipline) -> AgeEstimate:
    """Average age under ``discipline``: the head, the record's crossing
    sum over its E[K], and the service term, each half-width added;
    ``cycles_used`` is 0 and ``method`` the record's path."""
    cycles = pair.cycles(discipline)
    middle = cycles.crossing().over(cycles.k_mean)
    service = pair.service_term(discipline)
    return AgeEstimate(value=pair.head + middle.value + service.value,
                       ci_half_width=middle.half_width + service.half_width,
                       cycles_used=0, method=cycles.path)


def k_pmf(pair: Pair, k_max: int) -> KPmf:
    """Pmf of K under dropping up to ``k_max`` plus the remaining tail
    mass, from the dropping record."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    pmf, tail = pair.cycles(Discipline.DROPPING).pmf(k_max)
    return KPmf(tuple(Interval(float(v), float(e)) for v, e in zip(*pmf)),
                Interval(float(tail.value), float(tail.half_width)), k_max)
