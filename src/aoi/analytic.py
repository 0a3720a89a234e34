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
E[S | S <= Y] under preemption.  K's law is a named record of
:data:`RECORDS` (below), a :class:`Cycles` of an :class:`Interval` for
each of E[K], E[K^2], the crossing sum, the age's middle term (the
crossing sum over E[K], which closed forms take as the quotient of their
intervals and the lattice extrapolates) and Pr(K = k), proven but for
the lattice's extrapolated sums.  :meth:`Pair.records` gives every
record that applies to a pair, and :meth:`Pair.cycles` the first, which
the ages and bounds read; they only combine intervals.
Each record reads a law's ``phases()``, a shift c and Erlang blocks, and
branches on c, not on the law's class.

Phase-type gaps (``one_phase``, ``uniformized``)
    Uniformized at r = max r_i (Jensen, 1953; Grassmann, 1977), gaps of
    Erlang blocks with c = 0 end a phase at each jump of one Poisson(r)
    process with chance r_i/r: a gap spans M jumps, f_j = Pr(M = j) a w-mix
    of negative binomials, and u = delta + f*u.  A service spans
    N ~ Poisson(r S) jumps, P_j = Pr(N >= j) = T_{j-1} of its
    ``poisson_mix`` at r, and jump j comes at an Erlang(j, r) time: E[K] =
    sum u_j P_j, E[K^2] = sum (2u*u - u)_j P_j, the crossing sum is
    sum u_j (j/r) T_j and Pr(K > k) = sum f^{*k}_j P_j.  Each moment sum is
    the renewal kernel's sum up to J <= 4096 (Chernoff's bound past r times
    the service's top); u_j <= 1 and (u*u)_j <= j+1 bound the rest by the
    P-sums past J, closed forms in E[S] and E[S^2] less the sums up to J,
    finite or the record declines.  One exponential phase of rate lam has
    f = delta_1 and u = 1, so no kernel: the M/G/1/1 record (Inoue et al.,
    IEEE Trans. Inf. Theory, 2019), E[K] = 1 + lam E[S], E[K^2] = 1 +
    3 lam E[S] + lam^2 E[S^2], the crossing sum lam E[S^2]/2 and
    Pr(K = k) = pi_{k-1}(lam).  It alone goes before a block service's
    record, which serves where E[S^2] overflows.

Erlang blocks and residuals (``geometric``, ``service_blocks``)
    A law whose ``phases()`` is not None is c plus a mixture of Erlang
    blocks, block i of weight w_i, n_i phases and rate r_i: c = 0 for the
    exponential, Erlang and hyperexponential laws, and SE(r, c) is E(r)'s
    block after c.  With one on either side, p = Pr(S <= Y),
    E[Y Pr(S > Y)] and E[S; S <= Y] are the w-sums of each block's closed
    forms in pi and T, the ``poisson_mix`` at r_i of the other law, or of
    its ``residual`` at c > 0 (:attr:`Pair._terms`; Neuts,
    Matrix-Geometric Solutions in Stochastic Models, 1981).  Pairs of D, U
    and R laws read one law's residuals at the other's points
    (:meth:`Pair._phase_free`).  Under preemption K is geometric in p;
    dividing by p, not 1 - p, gives the M/M/1/1 age 1/lam + 1/mu.  Under
    dropping at other arrivals a block service at c = 0 draws its block
    once per cycle and climbs Poisson(r_i Y) of its phases in a gap, so
    K's record is the w-mix of the blocks' records (:func:`_block_sums`),
    at n_i = 1 geometric in p_i = T_0.

Lattice (``d_arrivals``, ``lattice``, ``bracketing``)
    Dropping with any other pair integrates the service ccdf against U,
    the renewal measure of the gaps (an atom at 0 plus the renewal
    function): E[K] against U, the crossing sum against x dU, E[K^2]
    against 2 U*U - U, Pr(K > k) against convolution powers of the gap
    law.  The gaps are rounded down, and separately up, onto a lattice of
    step h that ends where the service keeps at most 1e-13 of its mass,
    and u = delta + f*u is solved by an exponentially tilted FFT
    (Embrechts, Grubel and Pitts, 1993).  The services left here are
    bounded (D, U) or light-tailed (SE, R), so that cut leaves under
    1e-10 of E[S] and of E[S^2].  A service kink within rounding of a
    point j >= 1 is put on it; point 0 stays exact, as A_1 = 0 is.
    ``lattice`` takes E[K], E[K^2], the crossing sum and its quotient by
    E[K] (the age's middle term, which errs with both) from three levels,
    steps h = min(E[Y], top)/64, 2h and 4h, top the lattice's end, so a
    service far shorter than a mean gap still spans 16 coarsest steps
    (E[Y]/64 where top is too short for a normal float step), h doubled
    for a deeper cycle until the levels fit the point budget, with the
    kinks in (0, top] on all three where a step in range allows
    (:func:`_level_step`), by Richardson's extrapolation at each
    quantity's observed order, or the finest level where the levels agree
    to roundoff (:func:`_extrapolated`), its half-width an estimate, not a
    proof.  Where a check of it fails, it takes the sums of
    ``bracketing``, the bracketing solve at step h/4, the kinks on it too,
    its step doubled until it holds at most 2^18 points; a cycle that
    would pass them even at E[Y]/16 is not reached.  In the
    bracketing solve rounding down shrinks every partial sum, so the down
    end reads Pr(S > x), and rounding up strictly grows every partial sum
    of k >= 1 gaps (no gap law on the lattice has an atom), so the up end
    reads the left limit Pr(S >= x): the two ends bracket E[K], E[K^2],
    the crossing sum (:func:`_bracket`) and each Pr(S > T_k), each end
    widened by the transform's roundoff, which is relative to the weights,
    not to the sum, so a crossing sum of 0 keeps it.  At a D service's
    jump, on every level and on the bracketing lattice, the ends read 0
    and 1 and the midpoint the trapezoid rule's 1/2, so its levels
    err in powers of h^2 too.  Both records take Pr(K > k), with proven
    half-widths, from one rule on the bracketing lattice
    (:func:`_prefix_survival`): power sums (:func:`_survival`) on the
    points the partial sums reach, folded past an SE service's shift where
    they reach it, from the first point at or past it that :func:`_points`
    gives, so one kink rule places the shift for the ccdf rows, the levels'
    step and the fold; every lattice sum is one inner product of half
    spectra (:func:`_tilted`).  Gaps of one
    atom (``d_arrivals``) give the sums in closed form up to the last lattice
    point, the service's stop-loss bounding the rest (:func:`_beyond_top`).

Nothing here samples.

Ties (possible with deterministic laws) count as successes, matching the
simulator's completion-first rule and the strict ccdf convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Literal, NamedTuple

import numpy as np

from .distributions import Distribution, Uniform, check_pair
from .errors import TruncationNotReached, ZeroSuccessProbability
from .sim import AgeEstimate, Discipline, integer

__all__ = [
    "Cycles",
    "Interval",
    "KPmf",
    "Pair",
    "RECORDS",
    "exact_age",
    "k_pmf",
]

_MIN_STEPS = 16          # points per mean gap a cycle must fit at
_LEVEL_STEPS = 64        # of the finest extrapolated level
_STRIDES = (1, 2, 4)     # the levels' steps, in steps of the finest
_ORDERS = (2.0**0.8, 2.0**2.5)  # d(2h)/d(h) of an accepted observed order
_SAFETY = 2.0            # half-widths per extrapolation step removed
_ROUNDOFF = 8.0          # roundoffs per extrapolated value
_MAX_LATTICE = 1 << 18   # lattice points per solve: bounds time and memory
_SERVICE_TAIL = 1e-13    # service mass left beyond the lattice
_TOP_STEPS = 64          # truncation points tried per octave
_SNAP = 1e-6             # a kink this close, in steps, is on the lattice
_ALIAS_TILT = 1e-16      # tilt of the FFT's first aliased term
_EPS = sys.float_info.epsilon


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
    producer proved, and that producer's name in :data:`RECORDS`."""

    name: str
    # E[K], E[K^2], sum_k E[A_k * Pr(S > A_k)] and the age's middle term,
    # that sum over E[K], from one call made once
    sums: Callable[[], tuple[Interval, Interval, Interval, Interval]]
    # k_max -> arrays of Pr(K = k), k = 1..k_max, and Pr(K > k_max)
    pmf: Callable[[int], tuple[Interval, Interval]]

    @property
    def path(self) -> Literal["lattice", "closed_form"]:
        """``lattice`` for the lattice's two records, else ``closed_form``."""
        return "lattice" if self.name in ("lattice", "bracketing") else "closed_form"


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
        """Whether the service (else the gaps) is c plus Erlang blocks
        (w_i, n_i, r_i), c, the blocks, the other law's residual at c (None
        at c = 0), and the ``poisson_mix`` of that residual, or of the other
        law at c = 0, at each block's rate up to j = n_i.  An unshifted law
        goes first, the service first among them, so SE(r, 0) reads as E(r)
        on either side.  None when neither law is one."""
        sides = ((True, self.service, self.interarrival),
                 (False, self.interarrival, self.service))
        for service, law, other in sorted(
                sides, key=lambda side: _unshifted(side[1]) is None):
            if law.phases() is not None:
                c, blocks = law.phases()
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
        (d, end), (v, top) = y.support(), s.support()
        if d == end:  # a point mass: one point of support
            at = s.residual(d)
            return at.cdf, d * at.ccdf, at.below
        if v == top:
            at = y.residual(v)
            return at.ccdf, at.below, v * at.ccdf
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
        """K's record under ``discipline``, built once: the first of
        :meth:`records`, with no later one built."""
        if discipline not in self._cycles:
            self._cycles[discipline] = next(filter(None, (
                build(self) for build in RECORDS[discipline].values())))
        return self._cycles[discipline]

    def records(self, discipline: Discipline) -> dict[str, Cycles]:
        """Every record of K under ``discipline`` that applies, by name in
        :data:`RECORDS` order; one that applies but would overflow raises."""
        return {name: found for name, build in RECORDS[discipline].items()
                if (found := build(self))}

    @cached_property
    def _cycles(self) -> dict[Discipline, Cycles]:
        return {}

    @cached_property
    def _blocks_hold(self) -> bool:
        """Whether the service's Erlang blocks keep their dropping record in
        the float range: at most 1/T_0 gaps a phase bound E[K^2] and the
        crossing sum by about 2 (n/T_0)^2 and E[Y] (n/T_0)^2."""
        if _unshifted(self.service) is None:
            return False
        _, _, (_, shapes, _), _, mixes = self._mixes
        return min(tail[0] for _, tail in mixes) ** 2 * sys.float_info.max >= (
            2.0 * max(1.0, self.interarrival.mean()) * max(shapes) ** 2)

    def _one_phase(self) -> Cycles | None:
        """One-phase gaps, where E[S^2] is finite or blocks would not hold."""
        y, s = self.interarrival, self.service
        fits = _is_one_phase(y) and (math.isfinite(s.second_moment())
                                     or not self._blocks_hold)
        return _phase_cycles(y, s) if fits else None

    def _service_blocks(self) -> Cycles | None:
        """Unshifted service blocks, raising where E[K^2] would overflow."""
        if _unshifted(self.service) is None:
            return None
        _, _, blocks, _, mixes = self._mixes
        if not self._blocks_hold:
            t0 = min(float(tail[0]) for _, tail in mixes)
            raise TruncationNotReached(f"E[K^2] overflows: smallest T_0 = {t0!r}")
        return _block_cycles(blocks, mixes)

    def _uniformized(self) -> Cycles | None:
        """Unshifted gaps of more than one phase, within the jump budget."""
        y = self.interarrival
        fits = _unshifted(y) is not None and not _is_one_phase(y)
        return _phase_cycles(y, self.service) if fits else None

    @cached_property
    def _lattice(self) -> tuple[Cycles | None, ...]:
        """One atom's finite sums, else :func:`_lattice_cycles`' records."""
        y, s = self.interarrival, self.service
        d, end = y.support()
        if d == end:
            return _deterministic_cycles(d, s), None, None
        return None, *_lattice_cycles(y, s)

    def _geometric_cycles(self) -> Cycles:
        """Preemption's K, geometric in p.  Where E[K^2] or the crossing
        sum, about 2/p^2 and E[Y]/p^2, could overflow, it raises
        :class:`ZeroSuccessProbability`."""
        p = self.p.value
        if p <= 0.0 or p * p * sys.float_info.max < 2.0 * max(
                1.0, self.interarrival.mean()):
            raise ZeroSuccessProbability(self._no_success())
        sums = _closed(Interval(1.0 / p, 0.0), Interval((2 - p) / p**2, 0.0),
                       Interval(self.crossing.value / p**2, 0.0))

        def pmf(k_max: int) -> tuple[Interval, Interval]:
            power = (1.0 - p) ** np.arange(k_max + 1.0)
            return (Interval(p * power[:-1], np.zeros(k_max)),
                    Interval(power[-1], 0.0))
        return Cycles("geometric", lambda: sums, pmf)

    def _no_success(self) -> str:
        return (f"Pr(success) = {self.p.value:.4g} for interarrival "
                f"{self.interarrival.describe()} "
                f"vs service {self.service.describe()}")


# Each discipline's record builders of K by name, in the order tried.
RECORDS: dict[Discipline, dict[str, Callable[[Pair], Cycles | None]]] = {
    Discipline.PREEMPTION: {"geometric": Pair._geometric_cycles},
    Discipline.DROPPING: {
        "one_phase": Pair._one_phase, "service_blocks": Pair._service_blocks,
        "uniformized": Pair._uniformized,
        "d_arrivals": lambda pair: pair._lattice[0],
        "lattice": lambda pair: pair._lattice[1],
        "bracketing": lambda pair: pair._lattice[2]}}


def _unshifted(law: Distribution) -> tuple | None:
    """The Erlang blocks (w, n, r) of an unshifted phase law, else None."""
    c, blocks = law.phases() or (None, None)
    return blocks if c == 0 else None


def _is_one_phase(law: Distribution) -> bool:
    """Whether ``law`` is unshifted blocks of one phase, all at one rate."""
    blocks = _unshifted(law)
    return blocks is not None and max(blocks[1]) == 1 == len(set(blocks[2]))


def _closed(k_mean: Interval, k_second: Interval, crossing: Interval
            ) -> tuple[Interval, Interval, Interval, Interval]:
    """A record's sums (:class:`Cycles`) whose middle term is the quotient
    of its crossing sum's and E[K]'s intervals."""
    return k_mean, k_second, crossing, crossing.over(k_mean)


def _block_cycles(blocks: tuple, mixes: list[tuple]) -> Cycles:
    """The service blocks' record: the w-mix of each block's sums
    (:func:`_block_sums`) and pmf (:func:`_block_pmf`)."""
    w, shapes, rates = blocks
    sums = _closed(*(Interval(float(v), 0.0) for v in np.dot(w, [
        _block_sums(*m, n, r) for m, n, r in zip(mixes, shapes, rates)])))

    def pmf(k_max: int) -> tuple[Interval, Interval]:
        probs, tail = zip(*(_block_pmf(*m, n, k_max)
                            for m, n in zip(mixes, shapes)))
        return (Interval(np.dot(w, probs), np.zeros(k_max)),
                Interval(float(np.dot(w, tail)), 0.0))
    return Cycles("service_blocks", lambda: sums, pmf)


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


def _phase_cycles(interarrival: Distribution, service: Distribution
                  ) -> Cycles | None:
    """The phase-type gaps' record (module docstring): ``one_phase`` for
    one phase, else ``uniformized``, or None where the service's P-sums
    overflow or J passes its budget."""
    w, shapes, rates = _unshifted(interarrival)
    r, m1, m2 = max(rates), service.mean(), service.second_moment()
    if _is_one_phase(interarrival):  # f = delta_1, so u = 1, f^{*k} = delta_k
        closed = (1.0 + r * m1, 1.0 + 3.0 * r * m1 + r * r * m2, 0.5 * r * m2)

        def exact() -> tuple[Interval, Interval, Interval, Interval]:
            if not math.isfinite(closed[1]):
                raise TruncationNotReached(f"E[K^2] overflows: E[S^2] = {m2!r}")
            return _closed(*(Interval(v, 0.0) for v in closed))

        def poisson(k_max: int) -> tuple[Interval, Interval]:
            pi, tail = service.poisson_mix(r, k_max - 1)
            return Interval(pi, np.zeros(k_max)), Interval(float(tail[-1]), 0.0)
        return Cycles("one_phase", exact, poisson)
    jumps, cut = r * _truncation_point(service), -math.log(_SERVICE_TAIL)
    # J by Chernoff, J^2 within 64 point budgets: about one lattice solve
    top = int(min(jumps + math.sqrt(2.0 * cut * jumps) + cut, _MAX_LATTICE)) + 1
    whole = np.array([1.0 + r * m1, 0.5 * r * r * m2 + 2.0 * r * m1 + 1.0,
                      0.5 * r * r * m2])
    if not (top * top < 64 * _MAX_LATTICE and np.isfinite(whole).all()):
        return None
    f = np.zeros(top + 1)
    for v, n, ri in zip(w, shapes, rates):  # C(j-1, n-1) q^n (1-q)^(j-n)
        q, m = np.longdouble(ri) / r, np.arange(1.0, top + 1 - n)
        f[n:] += v * np.multiply.accumulate(np.concatenate(
            ([q ** n], (n - 1 + m) * (1 - q) / m)))
    t = service.poisson_mix(r, top)[1]
    p, j = np.concatenate(([1.0], t[:-1])), np.arange(top + 1.0)

    @cache
    def solved() -> tuple[Interval, Interval, Interval, Interval]:
        (once, cross), (twice, _), noise = _renewal_sums(
            f[None], np.stack((p, j * t / r)))
        kernel = np.concatenate((once, twice, cross))
        # P_j, (j+1) P_j, j T_j past J bound E[K], E[K^2]/2, r crossing's
        past = np.abs(whole - (p.sum(), (j + 1.0) @ p, j @ t)) + noise * whole
        hw = noise * kernel + (1.0, 2.0, 1.0 / r) * past
        return _closed(*(Interval(float(v), float(e))
                         for v, e in zip(kernel, hw)))

    def pmf(k_max: int) -> tuple[Interval, Interval]:
        powers, noise = _survival(f[None], p[None], k_max)  # + T_J past J
        return _pmf(powers[0, 0] - noise, powers[0, 0] + t[-1] + noise)
    return Cycles("uniformized", solved, pmf)


def _pmf(lo: np.ndarray, hi: np.ndarray) -> tuple[Interval, Interval]:
    """Pr(K = k), k = 1..k_max, and Pr(K > k_max) from the two ends of
    Pr(K > k)'s bracket, k >= 0."""
    mid, hw = Interval.between(lo, hi)
    return (Interval(mid[:-1] - mid[1:], hw[:-1] + hw[1:]),
            Interval(mid[-1], hw[-1]))


def _truncation_point(service: Distribution) -> float:
    """The end of a bounded support, else the first point E[S] 2^(j/64),
    j an integer, where Pr(S > x) <= 1e-13: at most 1.1% past the exact
    quantile, and in units of E[S], so it rescales with time.

    One array call of the ccdf over E[S] 2^k, for every k that keeps the
    point a finite normal float, finds the octave, and a second over its
    64ths the point.  A tail that reaches past the float range raises
    :class:`TruncationNotReached`.
    """
    hi = service.support()[1]
    if math.isfinite(hi):
        return hi
    mean = service.mean()
    e = math.frexp(mean)[1]  # mean = f 2^e, 1/2 <= f < 1
    octaves = np.ldexp(mean, np.arange(sys.float_info.min_exp - e,
                                       sys.float_info.max_exp - e + 1))
    passing = service.ccdf(octaves) <= _SERVICE_TAIL
    if not passing.any():
        raise TruncationNotReached(
            f"the tail of {service.describe()} reaches past the float range")
    tries = 0.5 * octaves[np.argmax(passing)] * np.exp2(
        np.arange(1, _TOP_STEPS + 1) / _TOP_STEPS)
    return float(tries[np.argmax(service.ccdf(tries) <= _SERVICE_TAIL)])


def _too_deep(steps: float) -> TruncationNotReached:
    return TruncationNotReached(
        f"a cycle spans {steps:.4g} lattice steps, more than {_MAX_LATTICE}; "
        "the expected arrivals-per-cycle count is too large to resolve")


def _points(service: Distribution, h: float, n: int
            ) -> tuple[np.ndarray, int | None]:
    """The lattice points jh, j < n, with each service kink, a finite end of
    its support (the D value, U's ends, the SE shift), that lies on one
    (:func:`_kink`) put there exactly, keeping its tie rule at every time
    scale; and the point holding the service's atom, else None.  Only a
    point mass has an atom: a support of one point v has Pr(S = v) = 1."""
    x = h * np.arange(n)
    lo, hi = service.support()
    atom = None
    for b in filter(math.isfinite, (lo, hi)):
        j = round(b / h)
        if _kink(b, h) and j < n:
            x[j] = b
            atom = j if lo == hi else None
    return x, atom


def _kink(b, h):
    """Whether each kink b lies within rounding of a point jh: point 0 is
    exact, as A_1 = 0 is, so only a kink at 0 lies on it."""
    j = np.rint(b / h)
    return (abs(h * j - b) <= _SNAP * h) & ((j != 0) | (b == 0))


def _ends_ccdf(service: Distribution, h: float, n: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """The points x of :func:`_points` and the service ccdf each end reads
    there: the down end, whose partial sums are at most the true ones,
    Pr(S > x); the up end, whose partial sums of k >= 1 gaps lie strictly
    above them (no gap law on the lattice has an atom), Pr(S >= x).  They
    differ only at the service's atom: one row per end there, else one."""
    x, atom = _points(service, h, n)
    c = service.ccdf(x)
    if atom is not None:  # Pr(S >= v) = Pr(S > v) + Pr(S = v)
        c = np.stack((c, c + (np.arange(n) == atom)))
    return x, c


def _cells(tail: np.ndarray) -> np.ndarray:
    """Each end's gap cells from the gap ccdf on the grid: the gaps
    rounded down, then up."""
    gaps = np.zeros((2, tail.size - 1))
    np.subtract(tail[:-1], tail[1:], out=gaps[0])  # Pr(jh < Y <= (j+1)h)
    gaps[1, 1:] = gaps[0, :-1]
    return gaps


def _level_step(top: float, interarrival: Distribution,
                service: Distribution) -> float:
    """The finest level's step: the largest b/4j from h down to h/2 that
    puts every kink, each finite end of either law's support in (0, top],
    on the coarsest level and so on every level, b the largest kink; else
    the largest that puts the kinks a partial sum of one gap or more can
    reach, those at or past the gaps' lower end, there; else the service's
    last kink; else h.  h is min(E[Y], top)/64, or E[Y]/64 where top/512,
    the bracketing lattice's least step, is not a normal float, doubled
    until the three levels fit the point budget, as they do by E[Y]/8
    where the cycle fits it at E[Y]/16 (:func:`_lattice_cycles`); a
    shorter b/4j must fit it too.  On the lattice a kink keeps each
    level's error a series in powers of h; off it the error swings with
    the kink's place between two points, and the observed order with it.
    The bracketing solve takes a quarter of it, so the kinks lie on that
    lattice too."""
    mean = interarrival.mean()
    normal = top / (8 * _LEVEL_STEPS) >= sys.float_info.min
    h = (min(mean, top) if normal else mean) / _LEVEL_STEPS
    least = top / (_MAX_LATTICE - 5 - 4.0 * _SNAP)  # least step they fit
    while h < least:
        h *= 2.0
    ends = [[b for b in law.support() if 0.0 < b <= top]
            for law in (service, interarrival)]
    every = ends[0] + ends[1]
    reached = [b for b in every if b >= interarrival.support()[0]]
    for kinks in filter(None, (every, reached, ends[0][-1:])):
        b = max(kinks)
        j0 = max(1, math.ceil(b / (4.0 * h) - _SNAP))
        step = b / (4.0 * np.arange(j0, 2 * j0 + 1))
        step = step[step >= max(0.5 * h, least)]  # they fall: a prefix
        for kink in set(kinks) - {b}:  # b itself lies on every b/j
            step = step[_kink(kink, 4.0 * step)]
        if step.size:
            return float(step[0])
    return h


def _lattice_cycles(interarrival: Distribution, service: Distribution
                    ) -> tuple[Cycles, Cycles]:
    """The ``lattice`` and ``bracketing`` records (module docstring) on one
    step, n and pmf (:func:`_prefix_survival`); a cycle too deep even at
    E[Y]/16 raises :class:`TruncationNotReached`."""
    # The budget at E[Y]/16 first: past it, b/4h in _level_step could
    # leave the float range; within it, the levels fit by E[Y]/8.
    top, mean = _truncation_point(service), interarrival.mean()
    if not top / (mean / _MIN_STEPS) < _MAX_LATTICE - 1:
        raise _too_deep(top / (mean / _MIN_STEPS))
    fine = _level_step(top, interarrival, service)
    h = 0.25 * fine
    while not top / h < _MAX_LATTICE - 1:
        h *= 2.0
    n = int(top / h) + 2
    # in steps of the coarsest level; a top on that lattice, as a bounded
    # service's last kink is, counts as on it at every time scale
    coarse = top / (4.0 * fine) + _SNAP

    @cache
    def bracketed() -> tuple[Interval, Interval, Interval, Interval]:
        return _full(interarrival, service, h, n, (1,))[0][0]

    @cache
    def solved() -> tuple[Interval, Interval, Interval, Interval]:
        return _extrapolated(*_full(interarrival, service, fine,
                                    4 * int(coarse) + 5, _STRIDES)
                             ) or bracketed()

    pmf = partial(_prefix_survival, interarrival, service, h, n)
    return Cycles("lattice", solved, pmf), Cycles("bracketing", bracketed, pmf)


def _bracket(h: float, k_mean, k_second, crossing, noise: float,
             weight: float) -> tuple[Interval, Interval, Interval, Interval]:
    """E[K], E[K^2], the crossing sum and its quotient by E[K] spanning
    their two ends, each given rounded down, then up, on the lattice of
    step h, and each end widened by its relative roundoff ``noise`` times
    the end, or for the crossing sum times ``weight``, its largest weight
    x G(x), where that is larger: the transform errs relative to its
    inputs, so a crossing sum of 0 still carries roundoff."""
    (k_down, k_up), (k2_down, k2_up), (c_down, c_up) = (
        k_mean, k_second, crossing)
    # A partial sum of k-1 gaps moves by at most (k-1) h, so each end's
    # crossing sum widened by h E[K(K-1)]/2 >= 0 brackets the true one; the
    # interval spans both computed ends too, never turned inside out.
    lo = min(c_up - 0.5 * h * max(k2_up - k_up, 0.0), c_down)
    hi = max(c_down + 0.5 * h * max(k2_down - k_down, 0.0), c_up)
    mid = 0.5 * (c_down + c_up)
    k1, k2, cross = (Interval(v.value,
                              v.half_width + noise * max(*map(abs, e), size))
                     for v, e, size in (
                         (Interval.between(k_down, k_up), k_mean, 0.0),
                         (Interval.between(k2_down, k2_up), k_second, 0.0),
                         (Interval(mid, max(mid - lo, hi - mid)), crossing,
                          weight)))
    return k1, k2, cross, cross.over(k1)


def _extrapolated(levels: list[tuple[Interval, ...]], noise: float,
                  weight: float) -> tuple[Interval, ...] | None:
    """Each quantity's Richardson value from its brackets at h, 2h and 4h
    (finest first), or None when one of them fails its checks.

    With v the midpoints, d1 = v(h) - v(2h) and d2 = v(2h) - v(4h), the
    observed order p has 2^p = d2/d1, and v(h) + d1/(2^p - 1) removes the
    error C h^p.  The half-width is twice the removed step, plus the
    transforms' roundoff: ``noise``, relative, times at most 4 for the
    extrapolation's weights and 2 for a quotient's two sums, of the value or,
    for the crossing sum and the middle term, of the crossing sum's largest
    weight ``weight`` where that is larger (E[K] >= 1).  Where d1 and
    d2 both lie within that roundoff term of v(h), the levels agree and p
    is undefined: v(h) is taken, its half-width the smaller of the
    roundoff term and its finest bracket's.  An extrapolated quantity whose
    p is outside [0.8, 2.5], or whose half-width is more than a quarter of
    its finest bracket's (what the bracketing solve proves at 4 times the
    points, to first order), fails.
    """
    out = []
    for fine, mid, coarse, size in zip(*levels, (0.0, 0.0, weight, weight)):
        d1, d2 = fine.value - mid.value, mid.value - coarse.value
        value = fine.value
        half_width = _ROUNDOFF * noise * max(abs(value), size)
        if abs(d1) <= half_width and abs(d2) <= half_width:
            half_width = min(half_width, fine.half_width)
        else:
            ratio = d2 / d1 if d1 else math.nan
            if not _ORDERS[0] <= ratio <= _ORDERS[1]:
                return None
            step = d1 / (ratio - 1.0)
            value = fine.value + step
            half_width = (_SAFETY * abs(step)
                          + _ROUNDOFF * noise * max(abs(value), size))
            if half_width > 0.25 * fine.half_width:
                return None
        out.append(Interval(value, half_width))
    return tuple(out)


def _deterministic_cycles(d: float, service: Distribution) -> Cycles:
    """The dropping record at D(d) arrivals: one atom of U a lattice
    point, T_k = (k-1) d, so the sums are finite up to the last point and
    the service's stop-loss bounds the rest (:func:`_beyond_top`)."""
    steps = _truncation_point(service) / d
    if not steps < _MAX_LATTICE - 1:
        raise _too_deep(steps)
    n = int(steps) + 2
    x, _ = _points(service, d, n)
    c = service.ccdf(x)
    first = 1.0 - float(c[0])  # Pr(K >= 1) = 1 whatever the service

    @cache
    def solved() -> tuple[Interval, Interval, Interval, Interval]:
        # Pr(S > x) falls, so it is 0 past a last point where it is 0.
        beyond = (_beyond_top(service, float(x[-1]), d) if c[-1]
                  else (0.0,) * 3)
        return _closed(Interval(float(first + c.sum()), beyond[0]),
                       Interval(float(first + (2.0 * np.arange(n) + 1.0) @ c),
                                beyond[1]),
                       Interval(float(x @ c), beyond[2]))

    def pmf(k_max: int) -> tuple[Interval, Interval]:
        # Pr(K > k) = Pr(S > k d) <= c[-1] past the last point
        kept = np.concatenate(([1.0], c[1:], np.zeros(k_max)))[:k_max + 1]
        beyond = np.zeros(k_max + 1)
        beyond[n:] = c[-1]
        return _pmf(kept - beyond, kept + beyond)
    return Cycles("d_arrivals", solved, pmf)


def _full(interarrival: Distribution, service: Distribution, h: float,
          n: int, strides: tuple[int, ...]
          ) -> tuple[list[tuple[Interval, ...]], float, float]:
    """The bracket (:func:`_bracket`) of every stride k's lattice, every
    k-th of the n points of step h with its own transform, each widened by
    the strides' largest roundoff, that roundoff and the crossing sum's
    largest weight x G(x), from one evaluation of each law's ccdf: the
    down end reads Pr(S > x), the up end Pr(S >= x) (:func:`_ends_ccdf`),
    and each end's E[K] and E[K^2] replace its 0-th term G(0) by
    Pr(K >= 1) = 1."""
    x, c = _ends_ccdf(service, h, n)
    weight = float((x * c).max())
    tail = interarrival.ccdf(h * np.arange(n + max(strides)))
    out = []
    for k in strides:
        xk, ck = x[::k], c[..., ::k]
        (once, crossing), (twice, _), noise = _renewal_sums(
            _cells(tail[::k][:xk.size + 1]), np.stack((ck, xk * ck), axis=-2))
        first = 1.0 - ck[..., 0]  # Pr(K >= 1) = 1 whatever the service
        out.append((first + once, first + twice, crossing, noise))
    noise = max(v[-1] for v in out)
    return [_bracket(k * h, *(v.tolist() for v in sums[:3]), noise, weight)
            for k, sums in zip(strides, out)], noise, weight


def _prefix_survival(interarrival: Distribution, service: Distribution,
                     h: float, n: int, k_max: int) -> tuple[Interval, Interval]:
    """The pmf (:func:`_pmf`) on the n points of step h, from one gap ccdf
    evaluation: on the b/h + 2 points that hold every non-zero cell (all n
    for gaps with no upper end b) and at (n-1)h and nh, for each end's gap
    mass M.  Each end's Pr(K > k) = M^k + sum_l f^{*k}_l (G_l - 1), k <=
    k_max, G the service ccdf that end reads (:func:`_ends_ccdf`), splits
    at J, each part widened by its roundoff bound.  The k-th power lives on
    [0, k(s-1)], s one past the last non-zero cell, so the sums read m =
    min(n, k_max (s-1) + 1) points, and J = m, unless an SE(r, c > 0)
    service's first point x_J >= c among the m of :func:`_points` comes
    before m: c itself where :func:`_kink` put it on a point, the rule of
    the ccdf rows, else the next jh, never point 0.

    Below J the sum is the power sums (:func:`_survival`), exactly M^k with
    roundoff 0 where no partial sum reaches G < 1; once k_max gaps can leave
    the lattice, f^{*k} against G with no M^k.  Past J, G(x_l) = e^{-r o}
    q^(l-J), o = x_J - c >= 0 from the same points and q = e^{-r h} (q^0 =
    1 even where r h overflows), so each gap a partial sum takes
    past J multiplies it by L = sum_i f_i q^i.  With D_m = sum_(i >= m) f_i
    q^(i-m), by doubling with every factor q^w <= 1, kappa_l = e^{-r o}
    D_(J-l) is point l's next G past J, and the sum past J is tau_k -
    beta_k: tau_k = sum_(l >= J) f^{*k}_l G(x_l) = L tau_(k-1) + sum_l
    f^{*(k-1)}_l kappa_l, and beta_k, the mass of f^{*k} past J, = M
    beta_(k-1) + sum_l f^{*(k-1)}_l F_(J-l), F_m the gap mass from m on,
    each weight only on the points below J the powers can read: 2k kernel
    roundoffs."""
    short = min(n, math.ceil(min(interarrival.support()[1] / h, n)) + 2)
    tail = interarrival.ccdf(h * np.concatenate((np.arange(short + 1.0),
                                                 (n, n - 1.0))))
    tail, far = tail[:-2], tail[-2:]
    gaps, mass = _cells(tail), tail[0] - far  # each end's total gap mass M
    s = _support(gaps)
    m = min(n, max(1, k_max * (s - 1) + 1))
    shift, blocks = service.phases() or (0.0, None)
    head = m  # J
    if shift:
        x = _points(service, h, m)[0]
        head = int(np.searchsorted(x, shift))
    stays = float(k_max * (s - 1) < n or head < m)  # 1 or 0
    out = stays * mass[:, None] ** np.arange(k_max + 1.0)
    noise = 0.0
    if head == m:  # below an SE service's J, G - 1 is 0
        weights = _ends_ccdf(service, h, m)[1] - stays
        if weights.any():
            powers, noise = _survival(gaps, weights[..., None, :], k_max)
            out += powers[:, 0]
    else:
        (rate,) = blocks[2]
        top = min(head, s)
        d = np.zeros((2, head + 1))  # D_m of each end, m = 0..J
        d[:, :top] = gaps[:, :top]
        q = np.ones(gaps.shape[1] - top)  # q^j, q^0 = 1
        with np.errstate(over="ignore"):  # q^j = e^-inf = 0 past the range
            q[1:] = np.exp(-rate * h * np.arange(1.0, q.size))
        d[:, top] = gaps[:, top:] @ q
        w = 1
        while w <= top:  # sums over [m, m + w) become sums over [m, m + 2w)
            d[:, :top + 1 - w] += d[:, w:top + 1] * math.exp(-rate * h * w)
            w *= 2
        read = min(head, max(1, (k_max - 1) * (s - 1) + 1))
        kappa = math.exp(-rate * float(x[head] - shift)) * (
            d[:, head:head - read:-1])
        at = tail[np.minimum(np.arange(head, head - read - 1, -1), s)]
        rest = np.stack((at[:-1] - far[0], at[1:] - far[1]))  # F_(J-l)
        powers, folded = _survival(gaps[:, :read], np.stack((kappa, rest),
                                                            axis=1), k_max - 1)
        factors = np.stack((d[:, 0], mass), axis=1)  # L and M
        tau_beta = np.zeros((2, 2))
        for k in range(1, k_max + 1):
            tau_beta = factors * tau_beta + powers[..., k - 1]
            out[:, k] += tau_beta[:, 0] - tau_beta[:, 1]
        noise = 2.0 * folded * np.arange(k_max + 1.0)
    out[:, 0] = 1.0
    return _pmf(out.min(0) - noise, out.max(0) + noise)


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


def _tilted(n: int, size: int, alias: float = _ALIAS_TILT):
    """``weigh``, ``spectrum`` and the roundoff gain rho^-n log2(size) eps
    of the tilted FFT of length ``size``, even, over ``n`` points, on the
    last axis; a gap row may stop short of n, 0 past its end.

    Tilting a gap law by rho^j, rho^(size+n) = ``alias``, makes the mass
    a circular convolution wraps into the first n points at most
    rho^size <= 1e-16^(4/5) of it for size >= 4n, and the roundoff the
    untilting 1/rho^j multiplies at most rho^-n <= 1e16^(1/5) = 1585.
    ``alias`` = 1 is no tilt, for sums that cannot wrap.  A lattice sum is
    then an inner product of half spectra (Parseval): a spectrum against
    ``weigh`` of the weights, conjugated (:func:`_totals`).
    """
    tilt = (np.exp(np.arange(n) * (math.log(alias) / (size + n)))
            if alias < 1.0 else np.ones(1))
    untilt = (2.0 / size) / tilt

    def weigh(w):
        out = np.fft.rfft(w * untilt, size)
        out[..., 0] *= 0.5  # the half spectrum holds these bins once
        out[..., -1] *= 0.5
        return np.conjugate(out, out=out)

    gain = alias ** (-n / (size + n)) * math.log2(size) * _EPS
    return weigh, lambda f: np.fft.rfft(f * tilt[:f.shape[-1]], size), gain


def _totals(weights: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The lattice sum of each end's ``spectrum`` row against each row of
    ``weights`` (from ``weigh``, shared by the ends or one set per end),
    off BLAS, whose complex matrix product can fall into a mode some 30
    times slower a lattice op.  ``einsum`` sums in order, so the m bins
    before the last (m = N/2, 2^k times 1, 3 or 5) go in 2^((k+1)//2)
    blocks, each summed in order, and then the blocks pairwise: all in
    order, the deep pair's age moved by 20 eps when rescaled by 1e-6."""
    m = spectrum.shape[-1] - 1
    blocks = 1 << (m & -m).bit_length() // 2
    head = np.einsum("...rbk,...bk->...rb",
                     weights[..., :m].reshape(*weights.shape[:-1], blocks, -1),
                     spectrum[..., :m].reshape(*spectrum.shape[:-1], blocks, -1))
    return (head.sum(-1) + weights[..., m] * spectrum[..., None, m]).real


def _renewal_sums(gaps: np.ndarray, weights: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """The discrete renewal kernel's sums, shared by the lattice and the
    phase-type record: sum_l u_l v_l for u = delta + f*u of each end's gap
    law f (a row of ``gaps``) and each row v of ``weights``, shared by the
    ends, and sum_l (2w - u)_l v_l, w = u*u, each indexed by weight row,
    then end, on the smallest FFT length N >= 4n;
    and their relative roundoff, rho^-n log2(N) eps times the largest
    tilted mass sum_l u_l rho^l: untilting multiplies the spectra's error
    by up to rho^-n, and against a direct long-double solve the sums kept
    within 1/2 of that bound."""
    n = gaps.shape[-1]
    weigh, spectrum, gain = _tilted(n, _fft_size(4 * n))
    by = weigh(weights)
    renewal = spectrum(gaps)
    np.subtract(1.0, renewal, out=renewal)
    np.reciprocal(renewal, out=renewal)  # u = delta + f*u
    square = 2.0 * renewal  # 2 u*u - u, built in place
    square -= 1.0
    square *= renewal
    noise = gain * float(renewal[..., 0].real.max())
    return _totals(by, renewal).T, _totals(by, square).T, noise


def _support(gaps: np.ndarray) -> int:
    """One past the last non-zero gap cell of either end."""
    cells = np.flatnonzero(gaps.any(axis=0))
    return int(cells[-1]) + 1 if cells.size else 0


def _survival(gaps: np.ndarray, weights: np.ndarray, k_max: int
              ) -> tuple[np.ndarray, float]:
    """The discrete renewal kernel's power sums, shared by the lattice and
    the phase-type record: sum_l f^{*k}_l v_l, k = 0..k_max, for each end's
    gap law f (a row of ``gaps``) and each row v of ``weights`` (shared by
    the ends or one set per end), the k-th power's spectrum a running
    product; and their roundoff, a gain times max |v_l|.  With s one past
    the last non-zero gap cell, the k-th power lives on [0, k(s-1)], so the
    sums read only the first m = min(n, max(1, k_max (s-1) + 1)) points of
    the weights and of the gaps (0 past a row's end).  When k_max (s-1) < m
    no power reaches past m, so none wraps: the transform is untilted, on
    the smallest even length N >= m of the form 2^a, 3 2^a or 5 2^a, and
    its gain is (k_max + 1) log2(N) eps, the k-th power's spectrum carrying
    k times the gap spectrum's error and the weights' spectrum one more
    (against long-double convolution powers of gaps of mass 1, k_max up to
    600, every sum kept within a third of it).  Else the length is the
    smallest FFT length >= max(4m, 8 min(s, m)), the tilt's: the first 8
    powers never wrap, later ones wrap only their tilted-away far tail,
    and the gain is rho^-m log2(N) eps."""
    s = _support(gaps)
    m = min(weights.shape[-1], max(1, k_max * (s - 1) + 1))
    if k_max * (s - 1) < m:
        weigh, spectrum, gain = _tilted(m, 2 * _fft_size(-(-m // 2)), 1.0)
        gain *= k_max + 1
    else:
        weigh, spectrum, gain = _tilted(
            m, _fft_size(max(4 * m, 8 * min(s, m))))
    by = weigh(weights[..., :m])
    step = spectrum(gaps[:, :m])
    out = np.empty((gaps.shape[0], by.shape[-2], k_max + 1))
    out[..., 0] = weights[..., 0]
    power = np.ones_like(step)
    for k in range(1, k_max + 1):
        power *= step
        out[..., k] = _totals(by, power)
    return out, gain * float(np.abs(weights[..., :m]).max())


def exact_age(pair: Pair, discipline: Discipline) -> AgeEstimate:
    """Average age under ``discipline``: the head, the record's crossing
    sum over its E[K], and the service term, each half-width added;
    ``cycles_used`` is 0 and ``method`` the record's path."""
    cycles = pair.cycles(discipline)
    *_, middle = cycles.sums()
    service = pair.service_term(discipline)
    return AgeEstimate(value=pair.head + middle.value + service.value,
                       ci_half_width=middle.half_width + service.half_width,
                       cycles_used=0, method=cycles.path)


def k_pmf(pair: Pair, k_max: int) -> KPmf:
    """Pmf of K under dropping up to ``k_max`` plus the remaining tail
    mass, from the dropping record."""
    k_max = integer("k_max", k_max)
    if not 1 <= k_max <= _MAX_LATTICE:  # a pmf call's work grows with k_max
        raise ValueError(f"k_max must be >= 1 and at most {_MAX_LATTICE}, "
                         f"got {k_max}")
    pmf, tail = pair.cycles(Discipline.DROPPING).pmf(k_max)
    return KPmf(tuple(Interval(float(v), float(e)) for v, e in zip(*pmf)),
                Interval(float(tail.value), float(tail.half_width)), k_max)
