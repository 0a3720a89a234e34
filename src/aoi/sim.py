"""Regenerative-cycle simulation of G/G/1/1 under dropping and preemption.

The system holds at most one update: under *dropping* an arrival that finds
the server busy is discarded; under *preemption in service* it replaces the
update being served, which restarts service with a fresh draw.  A delivery
resets the age to the sojourn time of the delivered update (a sawtooth).

Cycles run between *successful arrivals* (arrivals whose update is
delivered) and are i.i.d., so whole cycles are drawn with NumPy, in rounds
that may draw past what the cycles use, by a bounded amount.  Dropping:
cycle i takes gaps until their partial sum reaches its service ``S_i``, so
``K_i = min{k: A_1 + ... + A_k >= S_i}`` and ``G_i`` is that sum; all
uncrossed cycles walk at once, and each round draws as many gaps per cycle
as it has drawn so far plus one (a doubling walk, capped so that a round
holds about ``_BLOCK`` gaps).  So a cycle of K gaps draws at most 2K - 1
of them; the run also draws the gap before the first arrival and one
service per delivery.  Preemption: arrival j is delivered iff
``S_j <= Y_{j+1}``; (service, gap) pairs come in blocks of at most
``_BLOCK``: the first holds one pair per delivery needed, each later one
the pairs that the success fraction so far says the missing deliveries
take plus ``_MARGIN`` (a full ``_BLOCK`` while none has succeeded).  So
the pairs drawn past the last delivery used are the rest of the last
block, and only the delivered arrivals are kept.  The value is the exact
sawtooth average from the first delivery on: cycle i adds
``(S_i + G_i + S_{i+1})(G_i + S_{i+1} - S_i) / 2``.
Each cycle has ``g == w + busy``, with ``busy`` the delivered service and
``w`` the gap from that delivery to the next successful arrival.

Tie rule: a completion at exactly an arrival instant comes first, so it
succeeds and the arrival finds an idle server (``>=`` and ``<=`` above), as
in the analytic estimators' ccdf convention.  The event budget counts what
an event-by-event run processes: arrivals plus deliveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Literal, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import Distribution, check_pair
from .errors import DivergentAge

__all__ = [
    "Discipline", "SimConfig", "CycleRecord", "CycleRecords", "AgeEstimate",
    "CycleStatistics", "Moment", "run_simulation", "cycle_statistics", "Z95",
    "MAX_CYCLES",
]

Z95 = 1.959963984540054  # 97.5% standard normal quantile
# 97.5% Student t quantiles t(0.975, d), d = 1..29 degrees of freedom
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703,
)
_BATCHES = 30
_BLOCK = 1 << 14  # draws per walk round or preemption block: bounds memory
_MARGIN = 32  # pairs a preemption block draws past its expected need
# Trace rows formatted per write: bounds memory, and keeps every buffer of
# a chunk under glibc's 128 KiB mmap threshold, so writing a trace leaves
# the heap as it found it.  A row is at most 66 bytes (two 24-byte reprs,
# a 17-byte ",arrival_preempt," and the newline): 1280 * 66 = 84480.
# orjson's text is at most 24 bytes a cell with its comma (23 in range,
# "null" out of it): 2 * 1280 * 24 + 1 = 61441, under the 64 KiB past
# which orjson's buffer grows to 256 KiB.
_TRACE_ROWS = 1280
MAX_CYCLES = 1 << 24  # cycles per run: ~100 bytes each untraced, 1.7 GB


def integer(name: str, value) -> int:
    """``value`` as an int, an integral float converted; anything else (a
    bool too) raises ``ValueError`` naming ``name``."""
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def seed64(name: str, value) -> int:
    """``value`` as an integer (:func:`integer`) that fits in 64 bits, in
    [0, 2^64), the seeds every run and sweep takes; anything else raises
    ``ValueError`` naming ``name``."""
    value = integer(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")
    return value


class Discipline(str, Enum):
    DROPPING = "dropping"
    PREEMPTION = "preemption"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run, fully determined by its fields."""

    interarrival: Distribution
    service: Distribution
    discipline: Discipline
    target_cycles: int
    seed: int = 0
    max_events: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "discipline", Discipline(self.discipline))
        for name in ("target_cycles", "seed", "max_events"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, integer(name, value))
        if not 2 <= self.target_cycles <= MAX_CYCLES:  # a half-width needs 2
            raise ValueError(f"target_cycles must be >= 2 and at most "
                             f"{MAX_CYCLES}, got {self.target_cycles}")
        if self.max_events is not None and self.max_events < self.target_cycles:
            raise ValueError("max_events must be >= target_cycles")
        seed64("seed", self.seed)
        check_pair(self.interarrival, self.service)

    @property
    def effective_max_events(self) -> int:
        return self.max_events if self.max_events is not None \
            else 1000 * self.target_cycles


class CycleRecord(NamedTuple):
    """One cycle of :class:`CycleRecords`."""

    g: float
    w: float
    busy: float
    k: int


@dataclass(frozen=True, eq=False)
class CycleRecords:
    """Per-cycle observables of one run, one array entry per cycle.

    g     effective interarrival time (sum of the k arrival gaps)
    w     gap from this cycle's delivery to the next successful arrival
    busy  service time of the delivered update
    k     number of arrivals consumed by the cycle

    Iterating yields one :class:`CycleRecord` per cycle; two runs compare
    equal when all four arrays do.
    """

    g: np.ndarray
    w: np.ndarray
    busy: np.ndarray
    k: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self):
        return map(CycleRecord, self.g.tolist(), self.w.tolist(),
                   self.busy.tolist(), self.k.tolist())

    def __eq__(self, other):
        if not isinstance(other, CycleRecords):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class AgeEstimate:
    """Point estimate of the time-average age with a 95% half-width."""

    value: float
    ci_half_width: float
    cycles_used: int
    # the path: the simulator, or the exact cycle record's (see aoi.analytic)
    method: Literal["simulation", "lattice", "closed_form"]


class Moment(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class CycleStatistics:
    """Empirical cycle means, g's and k's with standard errors.

    ``p_hat = 1 / E[k]`` estimates the per-arrival success probability,
    which is meaningful under preemption where k is geometric.
    """

    g_mean: Moment
    k_mean: Moment
    w_mean: float
    busy_mean: float
    p_hat: Moment


def run_simulation(config: SimConfig, trace_path=None
                   ) -> tuple[AgeEstimate, CycleRecords]:
    """Simulate until ``target_cycles`` cycles close and return the
    time-average age plus the per-cycle records.

    The run needs ``target_cycles + 1`` deliveries (a cycle closes at the
    *next* successful arrival).  Raises :class:`DivergentAge` if that takes
    more than ``max_events`` arrivals plus deliveries.  With ``trace_path``
    set, every event of the same run is written to a CSV ``(time, event,
    age_after_event)``; the age before the first delivery is measured from
    a virtual age zero at time 0.  A run that raises leaves the file empty.
    """
    rng = np.random.default_rng(config.seed)
    cycles = (_dropping_cycles if config.discipline is Discipline.DROPPING
              else _preemption_cycles)
    if trace_path is None:
        return _estimate(*cycles(config, rng, keep=False)[:3])
    with open(trace_path, "wb") as fh:
        services, g, k, arrivals = cycles(config, rng, keep=True)
        _write_trace(fh, services, *arrivals)
    return _estimate(services, g, k)


def _check_budget(events: int, config: SimConfig) -> None:
    """Raise :class:`DivergentAge` if the run needs ``events`` (or at least
    that many) arrivals plus deliveries and its budget is smaller."""
    if events > config.effective_max_events:
        raise DivergentAge(
            f"no {config.target_cycles + 1} deliveries within "
            f"{config.effective_max_events} events; success probability "
            f"may be zero")


def _dropping_cycles(config: SimConfig, rng: np.random.Generator, keep: bool):
    """Services of the ``n + 1`` delivered updates, G and K of the ``n``
    cycles between them and, with ``keep``, the trace's arrivals.  The walk
    also crosses cycle ``n + 1``, whose dropped arrivals precede the last
    delivery."""
    y = config.interarrival
    n1 = config.target_cycles + 1
    first = y.sample_array(rng, 1)          # arrival 1 finds the server idle
    services = config.service.sample_array(rng, n1)
    g, k = np.empty(n1), np.empty(n1, dtype=np.int64)
    # the uncrossed cycles, their services and their partial sums
    active, left, partial = np.arange(n1), services, np.zeros(n1)
    drawn = settled = 0     # gaps drawn per active cycle, arrivals of the rest
    kept = []               # each round's (active, gaps, drawn) for the trace
    while active.size:
        m = active.size
        # as many gaps as drawn so far plus one: a cycle of K gaps draws
        # fewer than 2K
        b = min(drawn + 1, max(1, _BLOCK // m))
        gaps = y.sample_array(rng, b * m).reshape(b, m)
        # gaps are >= 0, so the sums only rise and the crossing gap's index
        # is the count of sums still below the service
        sums = np.cumsum(gaps, axis=0)
        sums += partial
        below = np.count_nonzero(sums < left, axis=0)
        crossed = below < b
        hit, miss = np.flatnonzero(crossed), np.flatnonzero(~crossed)
        done, at = active[hit], below[hit]
        g[done] = sums[at, hit]
        k[done] = drawn + at + 1
        settled += (drawn + 1) * hit.size + int(at.sum())
        if keep:
            kept.append((active, gaps, drawn))
        active, left, partial = active[miss], left[miss], sums[-1, miss]
        drawn += b
        _check_budget(settled + active.size * (drawn + 1) + n1, config)
    arrivals = None
    if keep:
        # In cycle order the gaps are the arrival stream: draw j of cycle i
        # is entry ends[i] - k[i] + j, used while j < k[i].  The crossing
        # gap of cycle n + 1 comes after the last delivery.
        ends = np.cumsum(k)                 # delivery i precedes arrival ends[i]
        starts, stream = ends - k, np.empty(ends[-1])
        for cycles, gaps, drawn in kept:
            j = np.arange(drawn, drawn + len(gaps))[:, None]
            used = j < k[cycles]
            stream[(starts[cycles] + j)[used]] = gaps[used]
        arrivals = (np.cumsum(np.concatenate((first, stream[:-1]))), starts,
                    ends, "arrival_dropped")
    return services, g[:-1], k[:-1], arrivals


def _preemption_cycles(config: SimConfig, rng: np.random.Generator,
                       keep: bool):
    """Services of the first ``n + 1`` delivered arrivals, G and K of the
    ``n`` cycles between them and, with ``keep``, the trace's arrivals.
    Blocks pair each arrival's service with the gap after it.  The first
    block holds one pair per delivery needed; each later one the pairs that
    the success fraction so far says the missing deliveries take, plus
    ``_MARGIN``, and a full ``_BLOCK`` while none has succeeded."""
    y, s = config.interarrival, config.service
    need = config.target_cycles + 1
    start = y.sample_array(rng, 1)          # time of the block's first arrival
    decided = found = 0
    delivered, every = [], []
    size = min(_BLOCK, need)
    while found < need:
        _check_budget(decided + 1 + need, config)
        services = s.sample_array(rng, size)
        gaps = y.sample_array(rng, size)
        times = np.cumsum(np.concatenate((start, gaps)))
        hits = np.flatnonzero(services <= gaps)
        delivered.append((times[hits], services[hits], decided + hits))
        if keep:
            every.append(times[:-1])
        found += hits.size
        decided += size
        start = times[-1:]
        size = (min(_BLOCK, -(-(need - found) * decided // found) + _MARGIN)
                if found else _BLOCK)
    times, services, index = (np.concatenate(c)[:need] for c in zip(*delivered))
    _check_budget(int(index[-1]) + 1 + need, config)
    arrivals = None
    if keep:
        arrivals = (np.concatenate(every)[:index[-1] + 1], index, index + 1,
                    "arrival_preempt")
    return services, np.diff(times), np.diff(index), arrivals


def _estimate(services: np.ndarray, g: np.ndarray, k: np.ndarray
              ) -> tuple[AgeEstimate, CycleRecords]:
    """The sawtooth average over the cycles between ``n + 1`` deliveries,
    summed in units of 2^e, e = :func:`_octave` of the cycle lengths."""
    e = _octave(g.max())  # g >= 0: sums of gaps, or differences of them
    scaled, gs = np.ldexp(services, -e), np.ldexp(g, -e)
    s0, s1 = scaled[:-1], scaled[1:]
    lengths = gs + s1 - s0
    areas = 0.5 * (s0 + gs + s1) * lengths
    value = float(areas.sum() / lengths.sum())
    estimate = AgeEstimate(value=math.ldexp(value, e),
                           ci_half_width=math.ldexp(
                               _batch_ci(areas, lengths, value), e),
                           cycles_used=len(g), method="simulation")
    busy = services[:-1]
    return estimate, CycleRecords(g=g, w=g - busy, busy=busy, k=k)


def _write_trace(fh, services: np.ndarray, times: np.ndarray,
                 served: np.ndarray, at: np.ndarray, busy_event: str) -> None:
    """Write every arrival (at ``times``: ``arrival_success`` when it is the
    first or follows a delivery, else ``busy_event``) and the delivery of
    each ``served`` arrival, which comes just before arrival ``at``.

    Every cycle has K >= 1, so ``at`` rises strictly: delivery i's row is
    ``at[i] + i``, the first arrival after it is row ``at[i] + i + 1``, and
    the arrivals fill the rows left, in order."""
    delivery = at + np.arange(at.size)
    code = np.ones(times.size + at.size, dtype=np.int8)
    code[delivery] = 2
    code[np.append(0, delivery[:-1] + 1)] = 0
    row_time, newest = np.empty(code.size), np.zeros(code.size)
    row_time[code != 2] = times
    row_time[delivery] = times[served] + services
    newest[delivery] = times[served]
    age = row_time - np.maximum.accumulate(newest, out=newest)
    names = (b",arrival_success,", f",{busy_event},".encode(), b",departure,")
    fh.write(b"time,event,age_after_event\n")
    for lo in range(0, code.size, _TRACE_ROWS):
        rows = slice(lo, lo + _TRACE_ROWS)
        fh.write(_trace_rows(row_time[rows], code[rows], age[rows], names))


def _trace_rows(times: np.ndarray, code: np.ndarray, ages: np.ndarray,
                names: tuple[bytes, bytes, bytes]) -> bytearray:
    """The rows ``time,event,age`` of one chunk, each float as its
    ``repr`` and event ``code[i]`` as ``names[code[i]]`` (with its commas).

    One orjson call formats both float columns, interleaved.  orjson's
    shortest round-trip writer gives ``repr``'s text on 0 and on [1e-4,
    1e16) in magnitude; every other cell (inf and nan too) goes in as nan,
    which orjson writes ``null``, and that ``null`` becomes a ``%-1a``
    (``repr``, padded to width 1: never padded), filled in by one ``%``.
    The comma after a time becomes byte ``1 + code`` (orjson's text has no
    bytes 1-3), then its name; the comma after an age, a newline.  Only a
    trace imports orjson."""
    import orjson

    cells = np.empty(2 * times.size)
    cells[0::2], cells[1::2] = times, ages
    size = np.abs(cells)
    other = np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (size == 0)))
    fixed = tuple(cells[other].tolist())
    cells[other] = np.nan
    raw = bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY))
    text = np.frombuffer(raw, dtype=np.uint8)
    commas = np.flatnonzero(text == ord(","))
    text[commas[0::2]] = code + 1
    text[commas[1::2]] = ord("\n")
    text[-1] = ord("\n")                   # the closing bracket
    starts = np.append(0, commas)[other] + 1
    for i, byte in enumerate(b"%-1a"):
        text[starts + i] = byte
    out = raw[1:] % fixed
    for marker, name in enumerate(names, 1):
        out = out.replace(bytes((marker,)), name)
    return out


def _batch_ci(areas: Sequence[float], lengths: Sequence[float],
              value: float) -> float:
    """95% half-width by batch means over cycles.

    Cycles are i.i.d. regenerative, so grouping them into up to 30 batches
    and using the spread of the batch ratios is conservative.  The b batch
    ratios leave b - 1 degrees of freedom, so the quantile is Student's t.
    """
    n = len(areas)
    b = min(_BATCHES, n)
    starts = np.linspace(0, n, b + 1).astype(int)[:-1]
    ratios = np.add.reduceat(areas, starts) / np.add.reduceat(lengths, starts)
    return _T975[b - 2] * math.sqrt(np.sum((ratios - value) ** 2)
                                    / ((b - 1) * b))


def _octave(top) -> int:
    """The e with ``top`` < 2^e, ``top`` a column's largest magnitude.
    Dividing by 2^e is exact, so it changes no result in the float range,
    and sums of the scaled squares cannot overflow."""
    return math.frexp(float(top))[1]


def _mean(xs: np.ndarray, top) -> float:
    """Mean of ``xs``, whose largest magnitude is ``top``: bit for bit
    NumPy's ``mean()`` of the column scaled by 2^-e, in one sum."""
    e = _octave(top)
    return math.ldexp(float(np.add.reduce(np.ldexp(xs, -e)) / len(xs)), e)


def _moment(xs: np.ndarray, top) -> Moment:
    """Mean and standard error of ``xs``, whose largest magnitude is
    ``top``: bit for bit NumPy's ``mean()`` and ``std(ddof=1)`` of the
    column scaled by 2^-e, with one sum for the mean and one for the
    squared deviations from it."""
    e, n = _octave(top), len(xs)
    xs = np.ldexp(xs, -e)
    mean = np.add.reduce(xs) / n
    xs -= mean
    np.square(xs, out=xs)
    std = math.sqrt(np.add.reduce(xs) / (n - 1))
    return Moment(math.ldexp(float(mean), e),
                  math.ldexp(std / math.sqrt(n), e))


def cycle_statistics(records: CycleRecords) -> CycleStatistics:
    """Sample means of the cycle observables.  g, busy and k are >= 0 by
    construction, so their largest entry is their largest magnitude; w
    takes ``abs``, as under preemption g is a difference of cumulative
    sums and can fall a rounding short of the delivered service."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 cycle records, got {len(records)}")
    g, w, busy, k = records.g, records.w, records.busy, records.k
    k_mean = _moment(k, k.max())
    return CycleStatistics(
        g_mean=_moment(g, g.max()), k_mean=k_mean,
        w_mean=_mean(w, np.abs(w).max()), busy_mean=_mean(busy, busy.max()),
        p_hat=Moment(1.0 / k_mean.value, k_mean.stderr / k_mean.value**2))
