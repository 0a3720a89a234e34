import csv
import hashlib
import json
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

from aoi import analytic
from aoi.distributions import (Deterministic, Distribution, Exponential,
                               Rayleigh, ShiftedExponential, Uniform)
from aoi.experiments import (SweepResult, SweepRow, SweepSpec, _escape,
                             _quoteattr, emit_chart, emit_csv, evaluate_point,
                             run_sweep)
from aoi.sim import Discipline


def small_spec(**overrides):
    base = dict(
        name="small",
        discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "shift": 0.5},
        swept_param="rate",
        grid=(0.5, 1.0, 2.0),
        service=Exponential(1.0),
        estimators=("simulate", "exact", "corollary1", "gm11", "mg11"),
        sim_cycles=2000,
        base_seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


# small_spec()'s spec as a sweep JSON object holds it.
SMALL_SPEC = {
    "name": "small",
    "discipline": "dropping",
    "interarrival": {"kind": "shifted_exponential", "shift": 0.5},
    "swept_param": "rate",
    "grid": [0.5, 1.0, 2.0],
    "service": {"kind": "exponential", "rate": 1.0},
    "estimators": ["simulate", "exact", "corollary1", "gm11", "mg11"],
    "sim_cycles": 2000,
    "base_seed": 7,
}


def read_rows(path):
    """The rows of a sweep CSV, its header checked: a ``divergent`` value
    and an empty ``ci`` read as None, every other number as ``float`` of
    its cell, so a row equals the one written only if each ``repr``
    reads back to the same float."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert header == ["param", "estimator", "value", "ci", "applicability"]
    return tuple(SweepRow(float(param), estimator,
                          None if value == "divergent" else float(value),
                          None if ci == "" else float(ci), applicability)
                 for param, estimator, value, ci, applicability in cells)


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
    # past the cycle cap: refused by the spec, naming its own field, before
    # any row of a sweep runs
    with pytest.raises(ValueError, match=r"^sim_cycles must be >= 2 and at "
                       f"most {1 << 24}, got 100000000000000000000$"):
        small_spec(sim_cycles=1e20)
    assert small_spec(sim_cycles=1 << 24).sim_cycles == 1 << 24


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
    spec = small_spec(grid=(0.25, 0.75, 1.5, 3.0), estimators=("exact",))
    col = [r for r in run_sweep(spec).rows if r.estimator == "exact"]
    for a, b in zip(col, col[1:]):
        assert b.value <= a.value + 3.0 * (a.ci + b.ci)
    # ... and nondecreasing in the shift.
    spec = SweepSpec(
        name="shift", discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "rate": 1.0},
        swept_param="shift", grid=(0.0, 0.5, 1.0, 2.0),
        service=ShiftedExponential(1.0, 0.1),
        estimators=("exact",))
    col = [r for r in run_sweep(spec).rows if r.estimator == "exact"]
    for a, b in zip(col, col[1:]):
        assert b.value >= a.value - 3.0 * (a.ci + b.ci)


def test_exact_rows_do_not_depend_on_the_seed():
    # General service: exact and corollary1 come from the lattice solve,
    # with its half-width as the ci; only simulate rows follow the seed.
    estimators = ("simulate", "exact", "corollary1", "mg11")
    spec = small_spec(service=ShiftedExponential(1.0, 0.1),
                      estimators=estimators, sim_cycles=200)
    a = run_sweep(spec)
    b = run_sweep(replace(spec, base_seed=8))
    column = lambda result, tag: [r for r in result.rows if r.estimator == tag]
    for tag in estimators[1:]:
        assert column(a, tag) == column(b, tag)
    assert column(a, "simulate") != column(b, "simulate")
    for exact, bound in zip(column(a, "exact"), column(a, "corollary1")):
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
        sim_cycles=50, base_seed=1)
    result = run_sweep(spec)
    cells = {(r.param, r.estimator): r for r in result.rows}
    assert cells[(0.5, "simulate")].value is None   # service never completes
    assert cells[(0.5, "exact")].value is None
    assert cells[(0.5, "corollary2")].value is None
    assert cells[(3.0, "simulate")].value == pytest.approx(3.5)
    assert cells[(3.0, "exact")].value == pytest.approx(3.5)


@pytest.mark.parametrize("discipline,y,s,tags,primitive,count", [
    (Discipline.DROPPING, Uniform(0.0, 0.2), Rayleigh(2.0),
     ("exact", "corollary1"), "_lattice_cycles", 1),
    (Discipline.PREEMPTION, Uniform(0.0, 2.0), Rayleigh(1.0),
     ("exact", "corollary2"), "residual", 2),
    (Discipline.PREEMPTION, Uniform(0.0, 2.0), Rayleigh(1.0),
     ("exact",), "residual", 2),
    (Discipline.DROPPING, Uniform(0.0, 2.0), Exponential(1.0),
     ("corollary1", "gm11"), "poisson_mix", 1),
    (Discipline.PREEMPTION, Exponential(1.0), ShiftedExponential(1.0, 0.5),
     ("exact", "corollary2"), "poisson_mix", 1),
    (Discipline.PREEMPTION, Uniform(0.0, 2.0), ShiftedExponential(1.0, 0.5),
     ("exact", "corollary2"), "residual", 1),
], ids=["lattice-solve-pair", "success-probability", "geometric-crossing",
        "block-record", "phase-pair", "shifted-block"])
def test_each_primitive_is_computed_once_per_point(monkeypatch, discipline, y,
                                                   s, tags, primitive, count):
    # An age and a bound of one grid point share its one Pair: p, the
    # crossing and the completed-service terms come from one set of the
    # laws' residuals (two for a uniform side, one at a shift) or
    # mixed-Poisson laws (one a block), whether one estimator reads them
    # or two.
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    if primitive == "_lattice_cycles":
        monkeypatch.setattr(analytic, primitive,
                            counting(analytic._lattice_cycles))
    else:
        for cls in {Distribution, type(y), type(s)}:
            if primitive in vars(cls):
                monkeypatch.setattr(cls, primitive,
                                    counting(getattr(cls, primitive)))
    rows = evaluate_point(discipline, y, s, tags, 1.0, 100, 0)
    assert [r.estimator for r in rows if r.value is not None] == list(tags)
    assert len(calls) == count


def test_csv_round_trip_and_determinism(tmp_path):
    spec = small_spec()
    result = run_sweep(spec)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    emit_csv(result, path_a)
    assert read_rows(path_a) == result.rows
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
    assert read_rows(path) == result.rows
    assert path.read_text(encoding="utf-8").splitlines()[1] == \
        "0.5,simulate,divergent,,"


def test_spec_json_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SMALL_SPEC), encoding="utf-8")
    assert SweepSpec.from_json_file(path) == small_spec()


def test_a_boolean_seed_is_refused(tmp_path):
    # JSON true is the int 1 to Python; a seed must be an integer.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SMALL_SPEC, base_seed=True)),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="base_seed must be an integer, got True"):
        SweepSpec.from_json_file(path)


@pytest.mark.parametrize("field,value,named", [
    ("name", 3, "name must be a string, got 3"),
    ("grid", [True, 2], "grid must hold numbers, got [True, 2]"),
    ("grid", ["0.5", "2"], "grid must hold numbers, got ['0.5', '2']"),
    ("estimators", "exact", "estimators must be a list of tags, got 'exact'"),
], ids=["numeric-name", "boolean-grid", "string-grid", "string-estimators"])
def test_a_spec_field_of_the_wrong_type_is_refused(field, value, named):
    # JSON true is the int 1 to Python and float("0.5") is 0.5, so such a
    # grid would pass as numbers; a string of estimators would be split
    # into one-letter tags; a numeric name would reach the chart's title.
    data = dict(SMALL_SPEC, **{field: value})
    with pytest.raises(ValueError) as exc:
        SweepSpec.from_dict(data)
    assert str(exc.value) == named


def test_chart_single_point_is_valid_svg(tmp_path):
    result = SweepResult(rows=(SweepRow(1.0, "exact", 2.5, 0.01, ""),))
    path = tmp_path / "one.svg"
    for title in ("one point", "M/M & D<G"):
        emit_chart(result, path, title=title)
        ET.fromstring(path.read_text(encoding="utf-8"))


def test_chart_of_an_empty_result_is_refused(tmp_path):
    with pytest.raises(ValueError, match="cannot chart an empty sweep result"):
        emit_chart(SweepResult(rows=()), tmp_path / "empty.svg")


def test_a_divergent_point_splits_its_series_line(tmp_path):
    rows = tuple(SweepRow(x, "exact", y, 0.0, "")
                 for x, y in [(0.5, 3.0), (1.0, 2.0), (2.0, None),
                              (3.0, 2.5), (4.0, 2.8)])
    path = tmp_path / "gap.svg"
    emit_chart(SweepResult(rows=rows), path)
    svg = ET.fromstring(path.read_text(encoding="utf-8"))
    lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
    assert [len(line.get("points").split()) for line in lines] == [2, 2]


def test_chart_marks_interior_minimum(tmp_path):
    rows = tuple(SweepRow(x, "simulate", y, 0.05, "")
                 for x, y in [(0.5, 5.0), (1.0, 3.0), (2.0, 2.6),
                              (3.0, 4.0), (4.0, 8.0)])
    path = tmp_path / "dip.svg"
    emit_chart(SweepResult(rows=rows), path)
    text = path.read_text(encoding="utf-8")
    assert 'id="local-minimum-simulate"' in text
    ET.fromstring(text)

    # Beside the plain double-quoted id above, one tag per other branch:
    # single quotes around a double quote, &quot; where both quotes occur,
    # and a newline as a character reference.
    for tag in ('a"b', 'a"b\'c', "a\nb"):
        quoted = tuple(SweepRow(r.param, tag, r.value, r.ci, "") for r in rows)
        emit_chart(SweepResult(rows=quoted), path)
        ids = [c.get("id") for c in ET.fromstring(path.read_text(
            encoding="utf-8")).iter("{http://www.w3.org/2000/svg}circle")]
        assert "local-minimum-" + tag in ids

    monotone = tuple(SweepRow(x, "simulate", 6.0 - x, 0.05, "")
                     for x in (0.5, 1.0, 2.0, 3.0))
    emit_chart(SweepResult(rows=monotone), path)
    assert "local-minimum" not in path.read_text(encoding="utf-8")


def test_chart_escapes_match_the_standard_library():
    # xml.sax.saxutils is the reference here only: aoi does not import it.
    rng = random.Random(48)
    alphabet = ['&', '<', '>', '"', "'", "\n", "\r", "\t", "a", "é", " ",
                "&amp;", "--"]
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert _escape(text) == escape(text)
        assert _quoteattr(text) == quoteattr(text)


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
        csv_rows = read_rows(tmp_path / f"{stem}.csv")
        assert csv_rows and all(r.value is not None for r in csv_rows)
        ET.fromstring((tmp_path / f"{stem}.svg").read_text(encoding="utf-8"))
    assert marker in proc.stdout


def test_chart_io_error_carries_path():
    result = SweepResult(rows=(SweepRow(1.0, "exact", 2.5, 0.0, ""),))
    with pytest.raises(OSError, match="no/such/dir"):
        emit_chart(result, "no/such/dir/out.svg")
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(result, "no/such/dir/out.csv")
