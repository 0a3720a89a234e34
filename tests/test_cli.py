import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import jsonschema
import pytest

from aoi import errors
from aoi.bounds import Applicability
from aoi.cli import main
from aoi.distributions import MrlVerdict, from_dict
from aoi.experiments import ESTIMATORS, SweepSpec, run_sweep
from aoi.schema import CLI_RESULT_SCHEMA
from aoi.sim import AgeEstimate, Discipline
from test_distributions import ALL_KINDS, RESCALED

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
    assert payload["result"]["method"] == "quadrature"


@pytest.mark.parametrize("discipline,interarrival,service,method", [
    ("dropping", EXP1, '{"kind": "uniform", "lower": 0, "upper": 1}', "lattice"),
    ("dropping", DET % 0.5, '{"kind": "rayleigh", "scale": 1}', "closed_form"),
    ("dropping", DET % 0.5, EXP1, "quadrature"),
    ("preemption", DET % 0.5, '{"kind": "rayleigh", "scale": 1}', "quadrature"),
])
def test_exact_names_its_path(capsys, discipline, interarrival, service, method):
    code, payload = run_json(capsys, "exact", "--discipline", discipline,
                             "--interarrival", interarrival,
                             "--service", service)
    assert code == 0
    assert payload["result"]["method"] == method


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


def test_usage_error_non_finite_law_parameter(capsys):
    # JSON 1e309 parses to inf, which every positivity check would pass.
    with pytest.raises(SystemExit) as exc:
        main(["check-properties", "--dist",
              '{"kind": "uniform", "lower": 0, "upper": 1e309}'])
    assert exc.value.code == 2
    assert "'upper' of kind 'uniform' must be finite" in capsys.readouterr().err


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
# Exponential laws whose squared time scale underflows or overflows.
EXP_TINY = '{"kind": "exponential", "rate": 1e300}'
EXP_HUGE = '{"kind": "exponential", "rate": 1e-300}'


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
    (("simulate", "--discipline", "preemption", "--interarrival", EXP_HUGE,
      "--service", EXP1), "interarrival law must have a finite second moment"),
    (("simulate", "--discipline", "dropping", "--interarrival", EXP_TINY,
      "--service", EXP1), "interarrival second moment underflows to 0"),

    (("exact", "--discipline", "dropping", "--interarrival", EXP_TINY,
      "--service", EXP_TINY), "interarrival second moment underflows to 0"),
    (("exact", "--discipline", "preemption", "--interarrival", EXP_TINY,
      "--service", EXP_TINY), "interarrival second moment underflows to 0"),
    (("bound", "--kind", "mg11", "--interarrival", EXP1, "--service", EXP_HUGE),
     "service second moment inf is out of the float range"),
], ids=["mc-samples", "seed", "seed-check-properties", "seed-sweep",
        "k-max", "cycles", "max-events",
        "zero-mean-interarrival", "zero-mean-interarrival-preemption",
        "zero-mean-interarrival-corollary2", "zero-mean-interarrival-simulate",
        "overflowing-interarrival-square-simulate",
        "underflowing-interarrival-square-simulate",
        "underflowing-interarrival-square-dropping",
        "underflowing-interarrival-square-preemption",
        "overflowing-service-square-mg11"])
def test_out_of_range_value_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert named in err and "Traceback" not in err
    assert out == ""


MC_SAMPLES_COMMANDS = [
    ("exact", "--discipline", "dropping", *PAIR),
    ("exact", "--discipline", "preemption", *PAIR),
    *(("bound", "--kind", tag, *PAIR) for tag in ESTIMATORS if tag != "exact"),
    ("kpmf", *PAIR),
]


@pytest.mark.parametrize("argv", MC_SAMPLES_COMMANDS,
                         ids=lambda argv: "-".join(argv[:3]))
def test_every_command_checks_mc_samples(capsys, argv):
    # No estimator reads --mc-samples, but every command that takes it
    # checks it, as --seed is checked, and no result echoes it.
    code, out, err = run(capsys, *argv, "--mc-samples", "100", "--json")
    assert code == 2 and out == ""
    assert f"aoi {argv[0]}: mc_samples must be >= 10000, got 100" in err
    code, payload = run_json(capsys, *argv, "--mc-samples", "10000")
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
    ({**SWEEP_SPEC, "interarrival": {"kind": "deterministic"},
      "swept_param": "value", "grid": [0.0, 1.0], "estimators": ["exact"]},
     "interarrival law must have a positive mean"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "deterministic"},
      "swept_param": "value", "grid": [0.0, 1.0], "estimators": ["simulate"]},
     "interarrival law must have a positive mean"),
    ({**SWEEP_SPEC, "service": {"kind": "exponential", "rate": 1e-300},
      "estimators": ["mg11"]}, "service second moment inf"),
], ids=["unknown-option", "deleted-walk-option", "deleted-quadrature-option",
        "missing-key", "missing-file", "negative-base-seed", "wide-base-seed",
        "fractional-base-seed", "fractional-sim-cycles", "bad-later-grid-point",
        "degenerate-pair-exact", "degenerate-pair-simulate",
        "overflowing-service-square-mg11"])
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
    ("dropping", {"kind": "uniform", "lower": 0.0}, "upper", 2.0,
     {"kind": "rayleigh", "scale": 1.0}),
])
def test_cli_and_sweep_read_one_estimator_table(capsys, discipline, template,
                                                swept, value, service):
    # Every tag of the table that applies to the pair gives the same value
    # and half-width through `aoi exact|bound --json` as in its run_sweep row.
    tags = [tag for tag, est in ESTIMATORS.items()
            if Discipline(discipline) in est.calls
            and (service["kind"] == "exponential" or not est.exponential_service)]
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
            assert result["half_width"] == row.ci, tag


def test_quadrature_commands_do_not_import_scipy_integrate(tmp_path):
    # The package runs on NumPy alone: with every SciPy import refused,
    # each subcommand exits 0 on all 7 families, and SciPy never loads.
    script = """
import json, sys
from pathlib import Path


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from aoi.cli import main

laws, out = json.loads(sys.argv[1]), Path(sys.argv[2])
U = {"kind": "uniform", "lower": 0.5, "upper": 2.0}
E = {"kind": "exponential", "rate": 1.0}


def check(*argv):
    assert main([str(a) for a in argv]) == 0, argv


for law in laws:
    for y, s in ((law, U), (E, law)):
        pair = ["--interarrival", json.dumps(y), "--service", json.dumps(s)]
        for discipline in ("dropping", "preemption"):
            check("simulate", "--discipline", discipline, "--cycles", 200,
                  *pair)
            check("exact", "--discipline", discipline, *pair)
        for kind in ("corollary1", "mg11", "corollary2"):
            check("bound", "--kind", kind, *pair)
        check("kpmf", *pair)
    check("bound", "--kind", "gm11", "--interarrival", json.dumps(law),
          "--service", json.dumps(E))
    check("check-properties", "--dist", json.dumps(law))
    spec = out / f"{law['kind']}.json"
    spec.write_text(json.dumps({
        "name": law["kind"], "discipline": "dropping",
        "interarrival": {"kind": "exponential"}, "swept_param": "rate",
        "grid": [0.5, 1.0], "service": law, "sim_cycles": 200,
        "estimators": ["simulate", "exact", "corollary1", "mg11"]}))
    check("sweep", "--spec", spec, "--csv", spec.with_suffix(".csv"))
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    laws = json.dumps([d.to_dict() for d in ALL_KINDS])
    done = subprocess.run([sys.executable, "-c", script, laws, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_schema_error_enum_names_every_domain_error():
    domain = {name for name, cls in vars(errors).items()
              if isinstance(cls, type) and issubclass(cls, errors.AoiError)
              and cls is not errors.AoiError}
    assert set(CLI_RESULT_SCHEMA["properties"]["error"]["enum"]) == domain


def _result_enum(command, key):
    def commands(rule):
        match = rule["if"]["properties"]["command"]
        return match.get("enum", [match.get("const")])

    (rule,) = [r for r in CLI_RESULT_SCHEMA["allOf"] if command in commands(r)]
    return set(rule["then"]["properties"]["result"]["properties"][key]["enum"])


def test_schema_label_enums_name_every_library_label():
    assert _result_enum("check-properties", "verdict") == \
        {v.value for v in MrlVerdict}
    assert _result_enum("bound", "applicability") == \
        {a.value for a in Applicability}
    method = typing.get_type_hints(AgeEstimate)["method"]
    for command in ("simulate", "exact"):
        assert _result_enum(command, "method") == set(typing.get_args(method))


def test_mg11_premise_not_met_without_nbue_service(capsys):
    code, payload = run_json(
        capsys, "bound", "--kind", "mg11", "--interarrival",
        '{"kind": "shifted_exponential", "rate": 2, "shift": 0.5}',
        "--service", '{"kind": "hyperexponential", "weights": [0.99, 0.01], '
                     '"rates": [5, 0.05]}')
    assert code == 0
    assert payload["result"]["applicability"] == "PremiseNotMet"
    assert payload["result"]["value"] == pytest.approx(4.2876, abs=1e-4)


@pytest.mark.parametrize("c", [1e-150, 1e-6, 1e6, 1e150])
def test_dropping_with_hyperexponential_service_rescales(capsys, c):
    # The lattice searches the service's ccdf for its top point.
    code, payload = run_json(
        capsys, "exact", "--discipline", "dropping", "--interarrival",
        json.dumps({"kind": "exponential", "rate": 1.0 / c}), "--service",
        json.dumps({"kind": "hyperexponential", "weights": [0.4, 0.6],
                    "rates": [0.5 / c, 3.0 / c]}))
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(2.8333311 * c, rel=1e-7)


@pytest.mark.parametrize("law", ALL_KINDS,
                         ids=lambda d: d.kind)
def test_check_properties_at_extreme_scales_matches_scale_one(capsys, law):
    _, base = run_json(capsys, "check-properties", "--dist",
                       json.dumps(law.to_dict()))
    for c in (1e-300, 1e300):
        scaled = json.dumps(RESCALED[law.kind](law, c).to_dict())
        code, payload = run_json(capsys, "check-properties", "--dist", scaled)
        assert code == 0
        for key in ("verdict", "nbue"):
            assert payload["result"][key] == base["result"][key], c


EXTREME_LAWS = [RESCALED[d.kind](d, c) for d in ALL_KINDS for c in (1e-300, 1e300)]


@pytest.mark.parametrize("command", [
    "check-properties", "dropping/interarrival", "dropping/service",
    "preemption/interarrival", "preemption/service"])
@pytest.mark.parametrize("law", EXTREME_LAWS,
                         ids=[f"{d.kind}-{c:g}" for d in ALL_KINDS
                              for c in (1e-300, 1e300)])
def test_extreme_time_scales_end_in_an_exit_code(capsys, law, command):
    # Moments, ccdf and pdf at times near the float range overflow to inf
    # or underflow to 0, never raise: each command ends in a result, a
    # domain error or a usage error.  A RuntimeWarning fails the test too.
    dist = json.dumps(law.to_dict())
    if command == "check-properties":
        argv = ["check-properties", "--dist", dist]
    else:
        discipline, role = command.split("/")
        y, s = (dist, EXP1) if role == "interarrival" else (EXP1, dist)
        argv = ["exact", "--discipline", discipline,
                "--interarrival", y, "--service", s]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2) and "Traceback" not in err
