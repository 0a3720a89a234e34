import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from aoi import cli, sim
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.errors import DivergentAge
from aoi.sim import (CycleRecord, CycleRecords, Discipline, SimConfig,
                     cycle_statistics, run_simulation)
from test_distributions import CONTINUOUS, RESCALED
from trace_oracle import write_trace

MM = SimConfig(Exponential(1.0), Exponential(1.0), Discipline.DROPPING,
               target_cycles=20_000, seed=42)
# The benchmark's simulate pairs, light load (about one arrival per cycle)
# to preemption overload (about 37).
SIM_PAIRS = [
    (Exponential(0.25), Exponential(1.0)), (Exponential(1.0), Exponential(1.0)),
    (Uniform(0.0, 2.0), Exponential(1.0)), (Deterministic(0.5), Uniform(0.0, 2.0)),
    (Hyperexponential((0.5, 0.5), (0.5, 2.0)), Rayleigh(1.0)),
    (Erlang(2, 2.0), ShiftedExponential(2.0, 0.5)),
    (Exponential(4.0), ShiftedExponential(1.0, 0.5)),
]
# The overload pair at the CLI's default size: the dropping walk's doubling
# meets its _BLOCK // m cap, and preemption takes several success-sized
# blocks.
OVERLOAD = [SimConfig(Exponential(4.0), ShiftedExponential(1.0, 0.5),
                      discipline, target_cycles=10_000, seed=12)
            for discipline in ("dropping", "preemption")]


def count_draws(monkeypatch, *laws):
    """Variates each of ``laws`` draws from now on, keyed by ``id``: a
    wrapper around the ``sample_array`` each law's class takes."""
    counts = {id(law): 0 for law in laws}
    owners = {next(c for c in type(law).__mro__ if "sample_array" in vars(c))
              for law in laws}
    for owner in owners:
        def counted(self, rng, n, draw=owner.sample_array):
            if id(self) in counts:
                counts[id(self)] += n
            return draw(self, rng, n)
        monkeypatch.setattr(owner, "sample_array", counted)
    return counts


def test_fully_deterministic_dropping_sawtooth():
    config = SimConfig(Deterministic(2.0), Deterministic(1.0), "dropping",
                       target_cycles=100, seed=5)
    estimate, records = run_simulation(config)
    # G = 2, S = 1 every cycle: age = E[G^2]/(2 E[G]) + E[S] = 1 + 1.
    assert estimate.value == pytest.approx(2.0, abs=1e-12)
    assert estimate.ci_half_width == pytest.approx(0.0, abs=1e-12)
    assert len(records) == 100
    for r in records:
        assert (r.g, r.w, r.busy, r.k) == (2.0, 1.0, 1.0, 1)


def test_deterministic_dropping_with_dropped_arrivals():
    # Arrivals every 1, service 1.5: the +1 arrival is dropped (1 < 1.5),
    # the +2 arrival lands on an idle server.
    config = SimConfig(Deterministic(1.0), Deterministic(1.5), "dropping",
                       target_cycles=50, seed=0)
    estimate, records = run_simulation(config)
    stats = cycle_statistics(records)
    assert stats.k_mean.value == pytest.approx(2.0)
    assert stats.g_mean.value == pytest.approx(2.0)
    assert estimate.value == pytest.approx(2.5, abs=1e-12)


def test_mm_dropping_matches_known_age():
    estimate, records = run_simulation(MM)
    exact = 1.0 + 2.0 - 0.5  # 1/lam + 2/mu - 1/(lam+mu)
    assert abs(estimate.value - exact) <= 3.0 * estimate.ci_half_width
    stats = cycle_statistics(records)
    assert abs(stats.k_mean.value - 2.0) <= 3.0 * stats.k_mean.stderr


def test_mm_preemption_geometric_success():
    config = SimConfig(Exponential(1.0), Exponential(1.0), "preemption",
                       target_cycles=20_000, seed=9)
    estimate, records = run_simulation(config)
    assert abs(estimate.value - 2.0) <= 3.0 * estimate.ci_half_width
    stats = cycle_statistics(records)
    # Pr(S <= Y) = 1/2 by symmetry of i.i.d. exponentials.
    assert abs(stats.p_hat.value - 0.5) <= 3.0 * stats.p_hat.stderr


def test_preemption_divergence_guard(monkeypatch):
    y, s = Deterministic(1.0), Deterministic(2.0)
    config = SimConfig(y, s, "preemption", target_cycles=10, seed=0)
    counts = count_draws(monkeypatch, y, s)
    with pytest.raises(DivergentAge):
        run_simulation(config)
    # with no success the blocks stay full, so the guard stops within one
    assert counts[id(s)] <= config.effective_max_events + sim._BLOCK


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
@pytest.mark.parametrize("y,s", SIM_PAIRS, ids=[
    "E(0.25)/E(1)", "E(1)/E(1)", "U(0,2)/E(1)", "D(0.5)/U(0,2)", "H2/R(1)",
    "ER(2,2)/SE(2,0.5)", "E(4)/SE(1,0.5)"])
def test_draws_follow_the_arrivals_used(tmp_path, monkeypatch, y, s,
                                        discipline):
    config = SimConfig(y, s, discipline, target_cycles=2000, seed=8)
    counts = count_draws(monkeypatch, y, s)
    trace = tmp_path / "t.csv"
    run_simulation(config, trace_path=trace)
    n1 = config.target_cycles + 1
    with open(trace) as fh:     # a header, n + 1 deliveries, the arrivals
        arrivals = sum(1 for _ in fh) - 1 - n1
    if discipline == "dropping":
        # the trace holds the arrivals of all n + 1 cycles, and a cycle of
        # K gaps draws at most 2K - 1; one more gap precedes arrival 1
        assert counts[id(y)] <= 2 * arrivals - n1 + 1
        assert counts[id(s)] == n1
    else:
        # one (service, gap) pair per decided arrival; the trace holds the
        # arrivals up to the last delivery
        assert counts[id(s)] <= 1.25 * arrivals + 64


def test_dropping_divergence_guard():
    # About 2e5 gaps of mean 5e-5 cover one service of 10: three cycles
    # need far more arrivals than the budget.
    config = SimConfig(Uniform(0.0, 1e-4), Deterministic(10.0), "dropping",
                       target_cycles=2, seed=0, max_events=1000)
    with pytest.raises(DivergentAge):
        run_simulation(config)


def test_preemption_memory_is_bounded():
    # About 37 arrivals per cycle, 7.4e5 in all: the engine keeps the
    # delivered ones and one block, not the whole stream.
    config = SimConfig(Exponential(4.0), ShiftedExponential(1.0, 0.5),
                       "preemption", target_cycles=20_000, seed=1)
    tracemalloc.start()
    try:
        _, records = run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records.k.sum() > 700_000
    assert peak < 5_000_000


def test_tie_rule_completion_wins():
    # Service ends exactly at the next arrival: the completion succeeds and
    # the simultaneous arrival starts the next cycle, in both disciplines.
    for discipline in ("dropping", "preemption"):
        config = SimConfig(Deterministic(1.0), Deterministic(1.0), discipline,
                           target_cycles=25, seed=0)
        estimate, records = run_simulation(config)
        for r in records:
            assert (r.g, r.w, r.busy, r.k) == (1.0, 0.0, 1.0, 1)
        assert estimate.value == pytest.approx(1.5, abs=1e-12)


def test_cycle_identity_and_positivity():
    for discipline in ("dropping", "preemption"):
        config = SimConfig(ShiftedExponential(1.0, 0.3), Uniform(0.2, 1.4),
                           discipline, target_cycles=4000, seed=17)
        _, records = run_simulation(config)
        for r in records:
            assert r.g == pytest.approx(r.w + r.busy, abs=1e-9)
            assert r.w >= -1e-12
            assert r.k >= 1


def _integrate_trace(path, skip_deliveries=1):
    """Event-by-event sawtooth integral between the first and last departure."""
    with open(path) as fh:
        rows = [(float(t), event, float(age))
                for t, event, age in list(csv.reader(fh))[1:]]
    departures = [i for i, (_, event, _) in enumerate(rows)
                  if event == "departure"]
    start, end = departures[0], departures[-1]
    area = 0.0
    for (t0, _, age0), (t1, _, _) in zip(rows[start:end], rows[start + 1:end + 1]):
        dt = t1 - t0
        area += age0 * dt + 0.5 * dt * dt
    return area / (rows[end][0] - rows[start][0])


def test_renewal_consistency_two_accounting_paths(tmp_path):
    # The reported value, the event-by-event trace integral, and the
    # per-cycle trapezoid reconstruction must agree to float precision.
    for discipline, seed in (("dropping", 3), ("preemption", 4)):
        config = SimConfig(Exponential(1.0), Exponential(1.0), discipline,
                           target_cycles=2000, seed=seed)
        trace = tmp_path / f"{discipline}.csv"
        estimate, records = run_simulation(config, trace_path=trace)
        assert _integrate_trace(trace) == pytest.approx(estimate.value,
                                                        abs=1e-9)
        with open(trace) as fh:
            final_busy = float([r for r in csv.reader(fh)
                                if r and r[1] == "departure"][-1][2])
        busy = [r.busy for r in records] + [final_busy]
        area = sum(((r.g + busy[i + 1]) ** 2 - busy[i] ** 2) / 2.0
                   for i, r in enumerate(records))
        elapsed = sum(r.g + busy[i + 1] - busy[i]
                      for i, r in enumerate(records))
        assert area / elapsed == pytest.approx(estimate.value, abs=1e-9)


def test_trace_event_vocabulary(tmp_path):
    trace = tmp_path / "t.csv"
    run_simulation(SimConfig(Exponential(2.0), Exponential(1.0), "preemption",
                             target_cycles=200, seed=1), trace_path=trace)
    with open(trace) as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["time", "event", "age_after_event"]
        events = {row[1] for row in reader}
    assert events == {"arrival_success", "arrival_preempt", "departure"}

    run_simulation(SimConfig(Exponential(2.0), Exponential(1.0), "dropping",
                             target_cycles=200, seed=1), trace_path=trace)
    with open(trace) as fh:
        events = {row[1] for row in list(csv.reader(fh))[1:]}
    assert events == {"arrival_success", "arrival_dropped", "departure"}


def test_trace_rows_equal_repr():
    # A seeded sample of every binade, subnormals to 1e300, both signs, and
    # the edges of the range where orjson's text is repr's, as both float
    # columns of one chunk; a release of orjson that changes its format
    # fails here.
    rng = np.random.default_rng(45)
    binades = np.ldexp(1.0 + rng.random((2072, 8)),
                       np.arange(-1074, 998)[:, None]).ravel()
    edges = np.array([1e-4, 1e16])
    column = np.concatenate((
        binades, -binades[::7], 0.25 * np.arange(-40, 41),
        10.0 ** np.arange(-5, 18), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan]))
    ages = column[::-1]
    code = (np.arange(column.size) % 3).astype(np.int8)
    names = ("arrival_success", "arrival_preempt", "departure")
    rows = sim._trace_rows(column, code, ages,
                           tuple(f",{name},".encode() for name in names))
    assert rows == "".join([f"{t!r},{names[e]},{a!r}\n" for t, e, a in zip(
        column.tolist(), code.tolist(), ages.tolist())]).encode()


def test_trace_chunk_buffers_stay_under_the_mmap_threshold(monkeypatch):
    # A chunk of orjson's longest cells and one of repr's longest, both at
    # the longest event name: orjson's buffer and the rows stay under
    # glibc's 128 KiB mmap threshold.
    import orjson

    dumps, peaks = orjson.dumps, []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return dumps(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(orjson, "dumps", measured)
    n = sim._TRACE_ROWS
    code = np.ones(n, dtype=np.int8)
    names = (b",arrival_success,", b",arrival_preempt,", b",departure,")
    for cell in (-0.00012345678901234567, -2.2250738585072014e-308):
        column = np.full(n, cell)
        rows = sim._trace_rows(column, code, column, names)
    assert len(rows) == 66 * n
    assert max(peaks) < 128 * 1024


def _one_arrival_cycles(times, services):
    """The trace's arrays for cycles of one arrival each: rows alternate
    arrival ``times[i]`` (age ``times[i] - times[i - 1]``) and its delivery
    (time ``times[i] + services[i]``, age ``services[i]``)."""
    n = times.size
    return services, times, np.arange(n), np.arange(1, n + 1), "arrival_dropped"


def _out_of_range(cell: bytes) -> bool:
    x = abs(float(cell))
    return not (x == 0 or 1e-4 <= x < 1e16)


# Cycles of one arrival fill a chunk of the trace with HALF cycles.
HALF = sim._TRACE_ROWS // 2
SPLICE_EDGES = {
    # the last cell of both chunks, a delivery's age
    "last cell": (1.0 + np.arange(2 * HALF),
                  np.tile(np.append(np.full(HALF - 1, 0.5), 1e-5), 2),
                  [(2 * HALF - 1, 1), (4 * HALF - 1, 1)]),
    # the first cell of both chunks, an arrival's time
    "first cell": (np.concatenate(([5e-5], 1.0 + np.arange(1, HALF),
                                   1e16 + 4.0 * np.arange(HALF))),
                   np.full(2 * HALF, 0.5), [(0, 0), (2 * HALF, 0)]),
    # every cell of the second chunk
    "every cell": (np.concatenate((1.0 + np.arange(HALF),
                                   1e20 * 1.5 ** np.arange(HALF))),
                   np.concatenate((np.full(HALF, 0.5),
                                   2.5e19 * 1.5 ** np.arange(HALF))),
                   [(row, col) for row in range(2 * HALF, 4 * HALF)
                    for col in (0, 1)]),
}


@pytest.mark.parametrize("case", sorted(SPLICE_EDGES))
def test_trace_splices_at_chunk_edges(tmp_path, case):
    # Cells that take repr at a chunk's first and last cell and filling a
    # whole chunk, over a row count that fills its chunks exactly.
    times, services, out = SPLICE_EDGES[case]
    arrays = _one_arrival_cycles(times, services)
    with open(tmp_path / "t.csv", "wb") as fh:
        sim._write_trace(fh, *arrays)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        write_trace(fh, *arrays)
    written = (tmp_path / "t.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    rows = [row.split(b",")[::2] for row in written.splitlines()[1:]]
    assert len(rows) == 2 * sim._TRACE_ROWS
    assert all(_out_of_range(rows[row][col]) for row, col in out)


TRACE_PAIRS = {
    "E(1)/E(1)": (Exponential(1.0), Exponential(1.0)),
    "U(0,2)/E(1)": (Uniform(0.0, 2.0), Exponential(1.0)),
    "H2/R(1)": (Hyperexponential((0.5, 0.5), (0.5, 2.0)), Rayleigh(1.0)),
    # each D(1)/D(1) delivery lands on an arrival instant, where the
    # completion-first rule orders the rows
    "D(1)/D(1)": (Deterministic(1.0), Deterministic(1.0)),
    "D(0.5)/U(0,2)": (Deterministic(0.5), Uniform(0.0, 2.0)),
    # the benchmark's deep pair: about 26 arrivals a dropping cycle, so
    # the walk keeps many rounds of gaps past the first (dropping only:
    # under preemption its 1500 cycles take about 900000 arrivals)
    "U(0,0.2)/R(2)": (Uniform(0.0, 0.2), Rayleigh(2.0)),
}
TRACE_RUNS = [(d, pair) for d in ("dropping", "preemption")
              for pair in sorted(TRACE_PAIRS)
              if d == "dropping" or pair != "U(0,0.2)/R(2)"]


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("discipline,pair", TRACE_RUNS,
                         ids=[f"{d}-{pair}" for d, pair in TRACE_RUNS])
def test_trace_bytes_match_the_reference_writer(tmp_path, monkeypatch,
                                                discipline, pair, c):
    # The benchmark's oracle reads only the trace's header, so the rows
    # are checked here: the same arrays through the reference writer.
    y, s = (RESCALED[law.kind](law, c) for law in TRACE_PAIRS[pair])
    write = sim._write_trace
    arrays = []

    def spy(fh, *args):
        arrays.append(args)
        write(fh, *args)

    monkeypatch.setattr(sim, "_write_trace", spy)
    run_simulation(SimConfig(y, s, discipline, target_cycles=1500, seed=9),
                   trace_path=tmp_path / "t.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        write_trace(fh, *arrays[0])
    written = (tmp_path / "t.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.count(b"\n") - 1 > sim._TRACE_ROWS  # a chunk boundary


@pytest.mark.parametrize("discipline,interarrival", [
    ("dropping", {"kind": "exponential", "rate": 1}),
    ("preemption", {"kind": "uniform", "lower": 0, "upper": 2})])
def test_benchmark_traces_match_the_reference_writer(tmp_path, monkeypatch,
                                                     discipline, interarrival):
    # The benchmark's two traced ops at their size, through the CLI.
    write = sim._write_trace
    arrays = []

    def spy(fh, *args):
        arrays.append(args)
        write(fh, *args)

    monkeypatch.setattr(sim, "_write_trace", spy)
    trace = tmp_path / "t.csv"
    assert cli.main([
        "simulate", "--discipline", discipline,
        "--interarrival", json.dumps(interarrival),
        "--service", json.dumps({"kind": "exponential", "rate": 1}),
        "--cycles", "10000", "--seed", "7", "--trace", str(trace),
        "--json"]) == 0
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        write_trace(fh, *arrays[0])
    assert trace.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_wald_identity_on_fixed_runs():
    cases = [
        SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 10_000, seed=21),
        SimConfig(ShiftedExponential(2.0, 0.4), Rayleigh(0.5), "dropping", 10_000, seed=22),
        SimConfig(Uniform(0.2, 1.8), Exponential(2.0), "preemption", 10_000, seed=23),
    ]
    for config in cases:
        _, records = run_simulation(config)
        stats = cycle_statistics(records)
        ey = config.interarrival.mean()
        gap = abs(stats.g_mean.value - stats.k_mean.value * ey)
        combined = math.hypot(stats.g_mean.stderr, ey * stats.k_mean.stderr)
        assert gap <= 3.0 * combined


def test_seed_determinism_bit_identical():
    for config in (MM, *OVERLOAD):
        a_est, a_recs = run_simulation(config)
        b_est, b_recs = run_simulation(config)
        assert a_est == b_est
        assert a_recs == b_recs


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=10)
def test_seed_determinism_property(seed):
    config = SimConfig(Exponential(1.0), Uniform(0.1, 1.2), "preemption",
                       target_cycles=60, seed=seed)
    assert run_simulation(config) == run_simulation(config)


def test_preemption_busy_is_the_delivered_service():
    config = SimConfig(Exponential(0.7), Exponential(1.3), "preemption",
                       target_cycles=3000, seed=11)
    _, records = run_simulation(config)
    # busy is a completed service, so every record's w covers at least the
    # idle gap and k counts the consumed arrivals.
    for r in records:
        assert r.busy > 0
        assert r.busy <= r.g + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 0)
    with pytest.raises(ValueError):
        SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 10,
                  max_events=5)
    with pytest.raises(ValueError):
        SimConfig(Exponential(1.0), Exponential(1.0), "nope", 10)
    with pytest.raises(ValueError, match="positive mean"):
        SimConfig(Deterministic(0.0), Deterministic(0.0), "dropping", 10)
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 10, seed=-1)
    config = SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 10)
    assert config.effective_max_events == 10_000


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
def test_cycles_past_the_cap_are_refused(discipline):
    # The config alone refuses them, before a run could draw or keep them;
    # the cap itself is a valid count.
    with pytest.raises(ValueError, match=f"at most {sim.MAX_CYCLES}, got"):
        SimConfig(Exponential(1.0), Exponential(1.0), discipline,
                  sim.MAX_CYCLES + 1)
    config = SimConfig(Exponential(1.0), Exponential(1.0), discipline,
                       sim.MAX_CYCLES)
    assert config.target_cycles == sim.MAX_CYCLES


@pytest.mark.parametrize("field,value", [
    ("target_cycles", 10.5), ("seed", 1.5), ("max_events", 1e5 + 0.5),
    ("target_cycles", "10"), ("seed", math.inf), ("max_events", math.nan)])
def test_a_non_integer_count_is_refused_by_name(field, value):
    # The rule a sweep spec's counts follow: anything but an integer or an
    # integral float is a ValueError that names the field, before any run.
    kwargs = {"target_cycles": 10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(Exponential(1.0), Exponential(1.0), "dropping", **kwargs)


def test_integral_float_counts_are_integers():
    config = SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 200.0,
                       seed=3.0, max_events=1e5)
    assert (config.target_cycles, config.seed, config.max_events) == (
        200, 3, 100_000)
    assert all(type(v) is int for v in (config.target_cycles, config.seed,
                                         config.max_events))
    plain = SimConfig(Exponential(1.0), Exponential(1.0), "dropping", 200,
                      seed=3, max_events=100_000)
    assert run_simulation(config)[0] == run_simulation(plain)[0]


def test_cycle_statistics_needs_two_records():
    one = CycleRecords(g=np.array([1.0]), w=np.array([0.5]),
                       busy=np.array([0.5]), k=np.array([1]))
    with pytest.raises(ValueError):
        cycle_statistics(one)


def reference_moment(xs):
    """Mean and standard error as NumPy gives them on the column scaled by
    2^-e, e the octave of its largest magnitude."""
    xs = np.asarray(xs, dtype=float)
    e = math.frexp(float(np.max(np.abs(xs))))[1]
    xs = np.ldexp(xs, -e)
    return (math.ldexp(float(xs.mean()), e),
            math.ldexp(float(xs.std(ddof=1) / math.sqrt(len(xs))), e))


def moment_cases():
    """Seeded records: two cycles, all-equal columns, entries from 5e-324
    to 1e300 (k up to 2^62), a w with one tiny negative entry or with a
    negative entry past 2^1024 times its largest, and runs of the
    benchmark's pairs."""
    rng = np.random.default_rng(49)

    def records(g, busy, k, w=None):
        g, busy = np.asarray(g, dtype=float), np.asarray(busy, dtype=float)
        return CycleRecords(g=g, w=g - busy if w is None else w, busy=busy,
                            k=np.asarray(k, dtype=np.int64))

    g = rng.exponential(size=2)
    yield "two", records(g, g * rng.random(2), rng.integers(1, 9, 2))
    for n in (2, 7, 10_001):
        yield f"equal-{n}", records(np.full(n, 2.3), np.full(n, 0.7),
                                    np.full(n, 3))
    for n in (2, 1000):
        g = np.exp2(rng.uniform(-1074.0, 996.0, n))
        g[:2] = 5e-324, 1e300
        busy = g * rng.random(n)
        busy[0] = 5e-324
        yield f"wide-{n}", records(g, busy, rng.integers(1, 2**62, n))
    for tiny in (-5e-324, -1e-17):
        g = rng.exponential(size=500)
        busy = g * rng.random(500)
        w = g - busy
        w[rng.integers(500)] = tiny
        yield f"negative-w-{tiny}", records(g, busy, rng.integers(1, 40, 500), w)
    g = np.exp2(rng.uniform(-1000.0, -990.0, 50))
    w = g * rng.random(50)
    w[7] = -1e300
    yield "negative-w-largest", records(g, g - w, np.ones(50), w)
    for discipline in ("dropping", "preemption"):
        for y, s in SIM_PAIRS:
            config = SimConfig(y, s, discipline, 2000, seed=49)
            yield f"{discipline} {y.describe()}", run_simulation(config)[1]


@pytest.mark.parametrize("name,records", list(moment_cases()))
def test_cycle_moments_match_numpy_bit_for_bit(name, records):
    stats = cycle_statistics(records)
    for field, column in (("g_mean", records.g), ("k_mean", records.k)):
        got = getattr(stats, field)
        want = reference_moment(column)
        assert [x.hex() for x in got] == [x.hex() for x in want], field
    for field, column in (("w_mean", records.w), ("busy_mean", records.busy)):
        got = getattr(stats, field)
        assert got.hex() == reference_moment(column)[0].hex(), field
    k_value, k_stderr = reference_moment(records.k)
    assert stats.p_hat == (1.0 / k_value, k_stderr / k_value**2)


def test_records_compare_by_value_and_iterate_as_cycle_records():
    _, records = run_simulation(SimConfig(Exponential(1.0), Uniform(0.1, 1.2),
                                          "dropping", 200, seed=3))
    assert len(records) == 200
    copy = CycleRecords(records.g.copy(), records.w.copy(),
                        records.busy.copy(), records.k.copy())
    assert copy == records and copy is not records
    _, other = run_simulation(SimConfig(Exponential(1.0), Uniform(0.1, 1.2),
                                        "dropping", 200, seed=4))
    assert other != records
    assert (records == 3) is False and records != 3
    rows = list(records)
    assert all(isinstance(r, CycleRecord) for r in rows)
    assert [r.k for r in rows] == records.k.tolist()
    assert sum(r.g for r in rows) == pytest.approx(records.g.sum())


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
def test_trace_leaves_the_run_unchanged(tmp_path, discipline):
    overload, = (c for c in OVERLOAD if c.discipline == discipline)
    for config in (SimConfig(Uniform(0.0, 2.0), Exponential(1.0), discipline,
                             target_cycles=3000, seed=12), overload):
        traced = run_simulation(config, trace_path=tmp_path / "t.csv")
        plain = run_simulation(config)
        assert traced[0] == plain[0]
        assert traced[1] == plain[1]


def test_batch_half_width_takes_student_t():
    # b batch ratios leave b - 1 degrees of freedom
    for df in range(1, 30):
        assert sim._T975[df - 1] == pytest.approx(
            scipy.stats.t.ppf(0.975, df), rel=1e-12)
    rng = np.random.default_rng(0)
    for n in (2, 7, 30):    # one cycle per batch
        areas, lengths = rng.random(n), 1.0 + rng.random(n)
        value = areas.sum() / lengths.sum()
        spread = np.sum((areas / lengths - value) ** 2) / ((n - 1) * n)
        assert sim._batch_ci(areas, lengths, value) == pytest.approx(
            scipy.stats.t.ppf(0.975, n - 1) * math.sqrt(spread), rel=1e-12)


@given(st.sampled_from(CONTINUOUS), st.sampled_from(CONTINUOUS),
       st.sampled_from(["dropping", "preemption"]), st.floats(-6.0, 6.0))
@example(CONTINUOUS[0], CONTINUOUS[1], "dropping", -6.0)
@example(CONTINUOUS[2], CONTINUOUS[0], "preemption", 6.0)
def test_simulation_is_scale_free(y, s, discipline, log10_c):
    c = 10.0**log10_c
    base_est, base = run_simulation(SimConfig(y, s, discipline, 2000, seed=6))
    est, scaled = run_simulation(SimConfig(RESCALED[y.kind](y, c),
                                           RESCALED[s.kind](s, c),
                                           discipline, 2000, seed=6))
    assert est.value == pytest.approx(c * base_est.value, rel=1e-9)
    assert np.array_equal(scaled.k, base.k)
