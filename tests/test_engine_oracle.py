"""The vectorized cycle engine against the event-by-event oracle.

The two draw different streams, so on random laws they agree within their
error bars; on deterministic laws they must agree exactly, event budget and
trace included.
"""

import math

import numpy as np
import pytest

from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.errors import DivergentAge
from aoi.sim import Z95, CycleRecords, SimConfig, cycle_statistics, run_simulation
from event_loop import run_event_loop

# Light load (about one arrival per cycle) to preemption overload (about 37).
PAIRS = [
    (Exponential(0.25), Exponential(1.0)),
    (Exponential(1.0), Exponential(1.0)),
    (Uniform(0.0, 2.0), Exponential(1.0)),
    (Deterministic(0.5), Uniform(0.0, 2.0)),
    (Hyperexponential((0.5, 0.5), (0.5, 2.0)), Rayleigh(1.0)),
    (Erlang(2, 2.0), ShiftedExponential(2.0, 0.5)),
    (Exponential(4.0), ShiftedExponential(1.0, 0.5)),
]
PAIR_IDS = ["E/E-light", "E/E", "U/E", "D/U", "H2/R", "Erlang/SE", "E/SE-overload"]


def _arrays(records):
    return CycleRecords(*(np.array(column) for column in zip(*records)))


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
@pytest.mark.parametrize("y,s", PAIRS, ids=PAIR_IDS)
def test_engine_agrees_with_event_loop(y, s, discipline):
    config = SimConfig(y, s, discipline, target_cycles=20_000, seed=2024)
    est, records = run_simulation(config)
    ref, ref_records = run_event_loop(config)
    assert est.cycles_used == ref.cycles_used == len(records) == 20_000
    assert abs(est.value - ref.value) <= \
        4.0 * math.hypot(est.ci_half_width, ref.ci_half_width)
    a, b = cycle_statistics(records), cycle_statistics(_arrays(ref_records))
    for name in ("k_mean", "g_mean", "p_hat"):
        ma, mb = getattr(a, name), getattr(b, name)
        assert abs(ma.value - mb.value) <= \
            4.0 * Z95 * math.hypot(ma.stderr, mb.stderr), name


def _outcome(run, config, trace):
    try:
        return run(config, trace_path=trace)
    except DivergentAge:
        return DivergentAge


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
@pytest.mark.parametrize("y,s", [
    (Deterministic(2.0), Deterministic(1.0)),
    (Deterministic(1.0), Deterministic(1.5)),
    (Deterministic(1.0), Deterministic(1.0)),
], ids=["idle-gap", "dropped-or-starved", "tie"])
def test_engine_matches_event_loop_on_deterministic_laws(y, s, discipline,
                                                         tmp_path):
    config = SimConfig(y, s, discipline, target_cycles=50, seed=0)
    engine = _outcome(run_simulation, config, tmp_path / "engine.csv")
    loop = _outcome(run_event_loop, config, tmp_path / "loop.csv")
    if loop is DivergentAge:     # preemption with S = 1.5 > Y = 1
        assert engine is DivergentAge
        return
    (est, records), (ref, ref_records) = engine, loop
    assert est.cycles_used == ref.cycles_used
    assert est.value == pytest.approx(ref.value, abs=1e-12)
    assert est.ci_half_width == pytest.approx(ref.ci_half_width, abs=1e-12)
    for a, b in zip(records, ref_records, strict=True):
        assert tuple(a) == pytest.approx(tuple(b), abs=1e-12)
    assert (tmp_path / "engine.csv").read_text() == \
        (tmp_path / "loop.csv").read_text()


@pytest.mark.parametrize("y,s,discipline,events_per_cycle", [
    (Deterministic(2.0), Deterministic(1.0), "dropping", 2),
    (Deterministic(2.0), Deterministic(1.0), "preemption", 2),
    (Deterministic(1.0), Deterministic(1.5), "dropping", 3),
    (Deterministic(1.0), Deterministic(1.0), "preemption", 2),
])
def test_budget_counts_arrivals_and_deliveries(y, s, discipline,
                                              events_per_cycle):
    # n cycles need n + 1 deliveries; each brings its arrivals (one, or two
    # with a dropped one) and its delivery.
    n = 20
    events = events_per_cycle * (n + 1)
    for run in (run_simulation, run_event_loop):
        run(SimConfig(y, s, discipline, n, max_events=events))
        with pytest.raises(DivergentAge):
            run(SimConfig(y, s, discipline, n, max_events=events - 1))
