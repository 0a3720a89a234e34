import json

import jsonschema
import pytest

from aoi.cli import main
from aoi.distributions import from_dict
from aoi.experiments import ESTIMATORS, SweepSpec, run_sweep
from aoi.schema import CLI_RESULT_SCHEMA
from aoi.sim import Discipline

EXP1 = '{"kind": "exponential", "rate": 1}'
DET = '{"kind": "deterministic", "value": %s}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, CLI_RESULT_SCHEMA)
    return code, payload


def test_exact_mm_prints_known_age(capsys):
    code, out, _ = run(capsys, "exact", "--discipline", "dropping",
                       "--interarrival", EXP1, "--service", EXP1)
    assert code == 0
    assert "2.5" in out


def test_exact_json_round_trips(capsys):
    code, payload = run_json(capsys, "exact", "--discipline", "preemption",
                             "--interarrival", EXP1, "--service", EXP1)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.0, rel=1e-8)
    assert payload["result"]["method"] == "analytic"


def test_simulate_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "simulate", "--discipline", "preemption",
                         "--interarrival", DET % 1, "--service", DET % 2,
                         "--cycles", "10")
    assert code == 1
    assert "DivergentAge" in err


def test_simulate_domain_error_json(capsys):
    code, payload = run_json(capsys, "simulate", "--discipline", "preemption",
                             "--interarrival", DET % 1, "--service", DET % 2,
                             "--cycles", "10")
    assert code == 1
    assert payload["error"] == "DivergentAge"


def test_simulate_reports_age_and_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, payload = run_json(capsys, "simulate", "--discipline", "dropping",
                             "--interarrival", DET % 2, "--service", DET % 1,
                             "--cycles", "20", "--seed", "5",
                             "--trace", str(trace))
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.0)
    assert trace.exists()


def test_check_properties_exponential(capsys):
    code, out, _ = run(capsys, "check-properties", "--dist", EXP1)
    assert code == 0
    assert "ConstantMRL" in out
    assert "NBUE            true" in out


def test_check_properties_json(capsys):
    code, payload = run_json(capsys, "check-properties", "--dist",
                             '{"kind": "hyperexponential", '
                             '"weights": [0.5, 0.5], "rates": [0.5, 2]}')
    assert code == 0
    assert payload["result"]["verdict"] == "IMRL"
    assert payload["result"]["nbue"] is False


def test_check_properties_is_scale_free(capsys):
    code, payload = run_json(capsys, "check-properties", "--dist",
                             '{"kind": "hyperexponential", '
                             '"weights": [0.5, 0.5], "rates": [5e5, 2e6]}')
    assert code == 0
    assert payload["result"]["verdict"] == "IMRL"
    assert payload["result"]["nbue"] is False


def test_kpmf_deterministic(capsys):
    code, payload = run_json(capsys, "kpmf",
                             "--interarrival", DET % 1, "--service", DET % 1.5,
                             "--k-max", "4", "--mc-samples", "10000")
    assert code == 0
    pmf = payload["result"]["pmf"]
    assert pmf[1]["k"] == 2 and pmf[1]["probability"] == pytest.approx(1.0)


def test_bound_subcommand_kinds(capsys):
    code, payload = run_json(capsys, "exact", "--discipline", "dropping",
                             "--interarrival", EXP1, "--service", EXP1)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.5)

    code, payload = run_json(capsys, "bound", "--kind", "gm11",
                             "--interarrival", EXP1, "--service", EXP1)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(3.0)

    code, payload = run_json(capsys, "bound", "--kind", "corollary1",
                             "--interarrival", EXP1, "--service", EXP1,
                             "--mc-samples", "10000")
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(3.0)

    code, payload = run_json(capsys, "bound", "--kind", "corollary2",
                             "--interarrival", DET % 2, "--service", DET % 1)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.0)


def test_bound_zero_success_exit_one(capsys):
    code, payload = run_json(capsys, "bound", "--kind", "corollary2",
                             "--interarrival", DET % 1, "--service", DET % 2)
    assert code == 1
    assert payload["error"] == "ZeroSuccessProbability"


def test_usage_error_bad_distribution_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--discipline", "dropping",
              "--interarrival", '{"kind": "exponential", "rate": -1}',
              "--service", EXP1])
    assert exc.value.code == 2
    assert "--interarrival" in capsys.readouterr().err


def test_usage_error_unknown_discipline(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--discipline", "sideways",
              "--interarrival", EXP1, "--service", EXP1])
    assert exc.value.code == 2


def test_usage_error_gm11_needs_exponential_service(capsys):
    code, out, err = run(capsys, "bound", "--kind", "gm11",
                         "--interarrival", EXP1, "--service", DET % 1)
    assert code == 2
    assert "gm11" in err and "Traceback" not in err
    assert out == ""


def test_deleted_mm11_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--kind", "mm11", "--interarrival", EXP1,
              "--service", EXP1])
    assert exc.value.code == 2
    assert "invalid choice: 'mm11'" in capsys.readouterr().err


PAIR = ("--interarrival", EXP1, "--service", EXP1)


@pytest.mark.parametrize("argv,named", [
    (("exact", "--discipline", "dropping", *PAIR, "--mc-samples", "100"),
     "mc_samples must be >= 10000"),
    (("exact", "--discipline", "preemption", *PAIR, "--seed", "-1"),
     "seed must fit in 64 bits"),
    (("check-properties", "--dist", EXP1, "--seed", "-1"),
     "seed must fit in 64 bits"),
    (("sweep", "--spec", "spec.json", "--csv", "out.csv", "--seed", "-1"),
     "seed must fit in 64 bits"),
    (("kpmf", *PAIR, "--k-max", "0"), "k_max must be >= 1"),
    (("simulate", "--discipline", "dropping", *PAIR, "--cycles", "0"),
     "target_cycles must be >= 1"),
    (("simulate", "--discipline", "dropping", *PAIR, "--cycles", "5",
      "--max-events", "1"), "max_events must be >= target_cycles"),
    (("exact", "--discipline", "dropping", "--interarrival", DET % 0,
      "--service", EXP1), "interarrival law must have a positive mean"),
    (("exact", "--discipline", "preemption", "--interarrival", DET % 0,
      "--service", EXP1), "interarrival law must have a positive mean"),
    (("bound", "--kind", "corollary2", "--interarrival", DET % 0,
      "--service", EXP1), "interarrival law must have a positive mean"),
    (("simulate", "--discipline", "dropping", "--interarrival", DET % 0,
      "--service", DET % 0), "interarrival law must have a positive mean"),
], ids=["mc-samples", "seed", "seed-check-properties", "seed-sweep",
        "k-max", "cycles", "max-events",
        "zero-mean-interarrival", "zero-mean-interarrival-preemption",
        "zero-mean-interarrival-corollary2", "zero-mean-interarrival-simulate"])
def test_out_of_range_value_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert named in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("exact", "--discipline", "preemption", *PAIR),
    ("bound", "--kind", "corollary2", *PAIR),
], ids=["exact-preemption", "corollary2"])
def test_quadrature_paths_ignore_mc_samples(capsys, argv):
    # Only the dropping paths check --mc-samples, so a value they would
    # reject is no error on a quadrature path, and the inputs do not echo it.
    code, payload = run_json(capsys, *argv, "--mc-samples", "100")
    assert code == 0
    assert "mc_samples" not in payload["inputs"]


@pytest.mark.parametrize("argv,flag", [
    (("exact", "--discipline", "dropping", *PAIR, "--truncation-eps", "1e-8"),
     "--truncation-eps"),
    (("bound", "--kind", "corollary2", *PAIR, "--quad-tol", "1e-9"),
     "--quad-tol"),
    (("kpmf", *PAIR, "--quad-tol", "1e-9"), "--quad-tol"),
    (("exact", "--discipline", "preemption", *PAIR, "--printed-denominator"),
     "--printed-denominator"),
], ids=["truncation-eps", "quad-tol", "kpmf-quad-tol", "printed-denominator"])
def test_deleted_flag_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_at_file_distribution_reference(capsys, tmp_path):
    path = tmp_path / "y.json"
    path.write_text(EXP1, encoding="utf-8")
    code, payload = run_json(capsys, "exact", "--discipline", "dropping",
                             "--interarrival", f"@{path}", "--service", EXP1)
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.5)


def test_env_var_supplies_default_seed(capsys, monkeypatch):
    argv = ("simulate", "--discipline", "dropping",
            "--interarrival", EXP1, "--service", EXP1, "--cycles", "500")
    monkeypatch.setenv("AOI_SEED", "77")
    _, out_env, _ = run(capsys, *argv)
    monkeypatch.delenv("AOI_SEED")
    _, out_flag, _ = run(capsys, *argv, "--seed", "77")
    assert out_env == out_flag
    _, out_default, _ = run(capsys, *argv)   # seed 0
    assert out_default != out_env


def test_same_argv_same_stdout(capsys):
    argv = ("simulate", "--discipline", "preemption",
            "--interarrival", EXP1, "--service", EXP1,
            "--cycles", "2000", "--seed", "3", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


SWEEP_SPEC = {
    "name": "cli-sweep",
    "discipline": "dropping",
    "interarrival": {"kind": "shifted_exponential", "shift": 0.5},
    "swept_param": "rate",
    "grid": [0.5, 1.0],
    "service": {"kind": "exponential", "rate": 1.0},
    "estimators": ["exact", "gm11"],
    "options": {"mc_samples": 20000, "seed": 0},
    "sim_cycles": 500,
    "base_seed": 3,
}


def test_sweep_end_to_end(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code, payload = run_json(capsys, "sweep", "--spec", str(spec_path),
                             "--csv", str(csv_path), "--chart", str(svg_path))
    assert code == 0
    assert csv_path.exists() and svg_path.exists()
    assert len(payload["result"]["rows"]) == 4
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "param,estimator,value,ci,applicability"


@pytest.mark.parametrize("spec,named", [
    ({**SWEEP_SPEC, "options": {"mc_samples": 20000, "walk_only": True}},
     "walk_only"),
    ({**SWEEP_SPEC, "options": {"k_truncation_epsilon": 1e-8}},
     "k_truncation_epsilon"),
    ({**SWEEP_SPEC, "options": {"quadrature_rel_tol": 1e-9}},
     "quadrature_rel_tol"),
    ({k: v for k, v in SWEEP_SPEC.items() if k != "grid"}, "grid"),
    (None, "No such file"),
    ({**SWEEP_SPEC, "base_seed": -1}, "base_seed must fit in 64 bits"),
    ({**SWEEP_SPEC, "base_seed": 2**64}, "base_seed must fit in 64 bits"),
    ({**SWEEP_SPEC, "base_seed": 2.5}, "base_seed must be an integer"),
    ({**SWEEP_SPEC, "sim_cycles": 2.5}, "sim_cycles must be an integer"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "uniform", "upper": 2.0},
      "swept_param": "lower", "grid": [0.5, 3.0]}, "upper must exceed lower"),
], ids=["unknown-option", "deleted-walk-option", "deleted-quadrature-option",
        "missing-key", "missing-file", "negative-base-seed", "wide-base-seed",
        "fractional-base-seed", "fractional-sim-cycles", "bad-later-grid-point"])
def test_sweep_bad_spec_is_usage_error(capsys, tmp_path, spec, named):
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--spec", str(spec_path),
                         "--csv", str(tmp_path / "out.csv"))
    assert code == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("discipline,template,swept,value,service", [
    ("dropping", {"kind": "shifted_exponential", "shift": 0.5}, "rate", 1.5,
     {"kind": "exponential", "rate": 1.0}),
    ("preemption", {"kind": "uniform", "lower": 0.2}, "upper", 1.8,
     {"kind": "shifted_exponential", "rate": 2.0, "shift": 0.2}),
])
def test_cli_and_sweep_read_one_estimator_table(capsys, discipline, template,
                                                swept, value, service):
    # Every tag of the table that applies to the discipline gives the same
    # value through `aoi exact|bound --json` as in its run_sweep row.
    tags = [tag for tag, est in ESTIMATORS.items()
            if Discipline(discipline) in est.calls]
    spec = SweepSpec(name="parity", discipline=discipline,
                     interarrival_template=template, swept_param=swept,
                     grid=(value,), service=from_dict(service), estimators=tags)
    rows = {r.estimator: r for r in run_sweep(spec).rows}
    pair = ("--interarrival", json.dumps({**template, swept: value}),
            "--service", json.dumps(service))
    for tag in tags:
        argv = (("exact", "--discipline", discipline) if tag == "exact"
                else ("bound", "--kind", tag))
        code, payload = run_json(capsys, *argv, *pair)
        assert code == 0
        result, row = payload["result"], rows[tag]
        assert result["value"] == row.value, tag
        if tag == "exact":
            assert result["ci_half_width"] == row.ci
        else:
            assert result["applicability"] == row.applicability
