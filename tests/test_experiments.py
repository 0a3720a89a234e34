import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from aoi.analytic import EstimatorOptions
from aoi.distributions import Deterministic, Exponential, ShiftedExponential
from aoi.experiments import (SweepResult, SweepRow, SweepSpec, emit_chart,
                             emit_csv, read_csv, run_sweep)

SMALL_OPTS = EstimatorOptions(mc_samples=20_000, seed=0)


def small_spec(**overrides):
    base = dict(
        name="small",
        discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "shift": 0.5},
        swept_param="rate",
        grid=(0.5, 1.0, 2.0),
        service=Exponential(1.0),
        estimators=("simulate", "exact", "corollary1", "gm11", "mg11"),
        options=SMALL_OPTS,
        sim_cycles=2000,
        base_seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(grid=())
    with pytest.raises(ValueError):
        small_spec(grid=(1.0, 1.0))
    with pytest.raises(ValueError):
        small_spec(grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        small_spec(estimators=())
    with pytest.raises(ValueError):
        small_spec(estimators=("nonsense",))
    with pytest.raises(ValueError):
        small_spec(estimators=("corollary2",))  # preemption-only
    with pytest.raises(ValueError):
        small_spec(discipline="preemption",
                   estimators=("simulate", "corollary1"))
    with pytest.raises(ValueError):
        small_spec(service=ShiftedExponential(1.0, 0.2),
                   estimators=("gm11",))
    with pytest.raises(ValueError):
        small_spec(interarrival_template={"kind": "shifted_exponential",
                                          "shift": 0.5, "rate": 1.0})


def test_rows_cover_grid_times_estimators():
    spec = small_spec()
    result = run_sweep(spec)
    assert len(result.rows) == len(spec.grid) * len(spec.estimators)
    for row in result.rows:
        assert row.estimator in spec.estimators
        assert row.param in spec.grid
    # grid-major, estimator order preserved
    expected = [(g, e) for g in spec.grid for e in spec.estimators]
    assert [(r.param, r.estimator) for r in result.rows] == expected


def test_bounds_dominate_exact_on_sweep():
    result = run_sweep(small_spec())
    by_param = {}
    for r in result.rows:
        by_param.setdefault(r.param, {})[r.estimator] = r
    for param, cells in by_param.items():
        exact = cells["exact"]
        slack = 3.0 * (exact.ci or 0.0)
        assert cells["corollary1"].value >= exact.value - slack - \
            3.0 * (cells["corollary1"].ci or 0.0)
        assert cells["gm11"].value >= exact.value - slack
        assert cells["mg11"].applicability == "RequiresDMRLandNBUE"
        assert cells["mg11"].value >= exact.value - slack


def test_monotonicity_probe_rate_and_shift():
    # Age is nonincreasing in the interarrival rate on this grid...
    spec = small_spec(grid=(0.25, 0.75, 1.5, 3.0), estimators=("exact",),
                      options=EstimatorOptions(mc_samples=100_000, seed=3))
    col = run_sweep(spec).column("exact")
    for a, b in zip(col, col[1:]):
        assert b.value <= a.value + 3.0 * (a.ci + b.ci)
    # ... and nondecreasing in the shift.
    spec = SweepSpec(
        name="shift", discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "rate": 1.0},
        swept_param="shift", grid=(0.0, 0.5, 1.0, 2.0),
        service=ShiftedExponential(1.0, 0.1),
        estimators=("exact",),
        options=EstimatorOptions(mc_samples=100_000, seed=4))
    col = run_sweep(spec).column("exact")
    for a, b in zip(col, col[1:]):
        assert b.value >= a.value - 3.0 * (a.ci + b.ci)


def test_exact_rows_do_not_depend_on_the_seed():
    # General service: exact and corollary1 come from the lattice solve,
    # with its half-width as the ci; only simulate rows follow the seed.
    estimators = ("simulate", "exact", "corollary1", "mg11")
    spec = small_spec(service=ShiftedExponential(1.0, 0.1),
                      estimators=estimators, sim_cycles=200)
    a = run_sweep(spec)
    b = run_sweep(replace(spec, base_seed=8, options=EstimatorOptions(
        mc_samples=50_000, seed=9)))
    for tag in estimators[1:]:
        assert a.column(tag) == b.column(tag)
    assert a.column("simulate") != b.column("simulate")
    for exact, bound in zip(a.column("exact"), a.column("corollary1")):
        assert 0.0 < exact.ci < 1e-2 * exact.value
        assert 0.0 < bound.ci < 1e-2 * bound.value
        assert bound.value >= exact.value - exact.ci - bound.ci


def test_divergent_points_are_recorded_not_fatal():
    spec = SweepSpec(
        name="divergent", discipline="preemption",
        interarrival_template={"kind": "deterministic"},
        swept_param="value", grid=(0.5, 3.0),
        service=Deterministic(2.0),
        estimators=("simulate", "exact", "corollary2"),
        options=SMALL_OPTS, sim_cycles=50, base_seed=1)
    result = run_sweep(spec)
    cells = {(r.param, r.estimator): r for r in result.rows}
    assert cells[(0.5, "simulate")].value is None   # service never completes
    assert cells[(0.5, "exact")].value is None
    assert cells[(0.5, "corollary2")].value is None
    assert cells[(3.0, "simulate")].value == pytest.approx(3.5)
    assert cells[(3.0, "exact")].value == pytest.approx(3.5)


def test_csv_round_trip_and_determinism(tmp_path):
    spec = small_spec()
    result = run_sweep(spec)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    emit_csv(result, path_a)
    assert read_csv(path_a) == result
    emit_csv(run_sweep(spec), path_b)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(path_a) == digest(path_b)


def test_csv_round_trip_with_divergent_rows(tmp_path):
    result = SweepResult(rows=(
        SweepRow(0.5, "simulate", None, None),
        SweepRow(0.5, "exact", 2.3456789012345678, 0.001, ""),
        SweepRow(1.0, "mg11", 2.25, 0.0, "ReversedUnderIMRL"),
    ))
    path = tmp_path / "d.csv"
    emit_csv(result, path)
    assert read_csv(path) == result


def test_spec_json_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    loaded = SweepSpec.from_json_file(path)
    assert loaded == spec


def test_chart_single_point_is_valid_svg(tmp_path):
    result = SweepResult(rows=(SweepRow(1.0, "exact", 2.5, 0.01, ""),))
    path = tmp_path / "one.svg"
    for title in ("one point", "M/M & D<G"):
        emit_chart(result, path, title=title)
        ET.fromstring(path.read_text(encoding="utf-8"))


def test_chart_marks_interior_minimum(tmp_path):
    rows = tuple(SweepRow(x, "simulate", y, 0.05, "")
                 for x, y in [(0.5, 5.0), (1.0, 3.0), (2.0, 2.6),
                              (3.0, 4.0), (4.0, 8.0)])
    path = tmp_path / "dip.svg"
    emit_chart(SweepResult(rows=rows), path)
    text = path.read_text(encoding="utf-8")
    assert 'id="local-minimum-simulate"' in text
    ET.fromstring(text)

    monotone = tuple(SweepRow(x, "simulate", 6.0 - x, 0.05, "")
                     for x in (0.5, 1.0, 2.0, 3.0))
    emit_chart(SweepResult(rows=monotone), path)
    assert "local-minimum" not in path.read_text(encoding="utf-8")


def test_chart_determinism(tmp_path):
    result = run_sweep(small_spec())
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_chart(result, a, title="t")
    emit_chart(result, b, title="t")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("script,outputs,marker", [
    ("preemption_overload.py", ["preemption-overload"], "minimum exact age"),
    ("dropping_imrl_reversal.py", ["dropping-imrl-reversal"], "ReversedUnderIMRL"),
    ("dropping_shifted_exponential.py",
     ["dropping-rate-sweep", "dropping-shift-sweep"], "wrote"),
], ids=["preemption_overload", "dropping_imrl_reversal",
        "dropping_shifted_exponential"])
def test_experiment_script_runs(tmp_path, script, outputs, marker):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    proc = subprocess.run(
        [sys.executable, str(path), "--cycles", "300",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for stem in outputs:
        csv_rows = read_csv(tmp_path / f"{stem}.csv").rows
        assert csv_rows and all(r.value is not None for r in csv_rows)
        ET.fromstring((tmp_path / f"{stem}.svg").read_text(encoding="utf-8"))
    assert marker in proc.stdout


def test_chart_io_error_carries_path():
    result = SweepResult(rows=(SweepRow(1.0, "exact", 2.5, 0.0, ""),))
    with pytest.raises(OSError, match="no/such/dir"):
        emit_chart(result, "no/such/dir/out.svg")
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(result, "no/such/dir/out.csv")
