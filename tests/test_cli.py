import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import jsonschema
import pytest

from aoi import cli, errors
from aoi.bounds import Applicability
from aoi.cli import main
from aoi.distributions import Distribution, MrlVerdict, from_dict
from aoi.experiments import ESTIMATORS, SweepSpec, run_sweep
from aoi.schema import CLI_RESULT_SCHEMA
from aoi.sim import Z95, AgeEstimate, Discipline
from test_distributions import ALL_KINDS, RESCALED

EXP1 = '{"kind": "exponential", "rate": 1}'
DET = '{"kind": "deterministic", "value": %s}'
H2_GAPS = '{"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [0.5, 2]}'
STIFF_H2 = ('{"kind": "hyperexponential", "weights": [0.99999, 1e-05], '
            '"rates": [1000000.0, 0.001]}')


DEEP_JSON = "[" * 3000 + "]" * 3000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out, parse_constant=refuse_constant)
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
    assert payload["result"]["method"] == "closed_form"


@pytest.mark.parametrize("discipline,interarrival,service,method", [
    ("dropping", '{"kind": "uniform", "lower": 0, "upper": 2}',
     '{"kind": "uniform", "lower": 0, "upper": 1}', "lattice"),
    ("dropping", EXP1, '{"kind": "uniform", "lower": 0, "upper": 1}',
     "closed_form"),
    ("dropping", DET % 0.5, '{"kind": "rayleigh", "scale": 1}', "closed_form"),
    ("dropping", DET % 0.5, EXP1, "closed_form"),
    ("preemption", DET % 0.5, '{"kind": "rayleigh", "scale": 1}', "closed_form"),
    # phase-type gaps take the uniformized record; a stiff phase, whose
    # jumps would pass the point budget, keeps the lattice
    ("dropping", H2_GAPS, '{"kind": "uniform", "lower": 0, "upper": 1}',
     "closed_form"),
    ("dropping", '{"kind": "erlang", "shape": 2, "rate": 2}',
     '{"kind": "rayleigh", "scale": 1}', "closed_form"),
    ("dropping", STIFF_H2, '{"kind": "shifted_exponential", "rate": 1, '
     '"shift": 0.5}', "lattice"),
])
def test_exact_names_its_path(capsys, discipline, interarrival, service, method):
    code, payload = run_json(capsys, "exact", "--discipline", discipline,
                             "--interarrival", interarrival,
                             "--service", service)
    assert code == 0
    assert payload["result"]["method"] == method
    assert math.isfinite(payload["result"]["ci_half_width"])


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


@pytest.mark.parametrize("law", [
    {"kind": "exponential", "rate": 1e-320},
    {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [1e-320, 1]},
    {"kind": "erlang", "shape": 3, "rate": 5e-324},
], ids=["E", "H2", "Erlang"])
def test_check_properties_refuses_a_mean_that_overflows(capsys, law):
    code, out, err = run(capsys, "check-properties", "--dist",
                         json.dumps(law), "--json")
    assert code == 2 and out == ""
    assert err.startswith("aoi check-properties: the law must have a finite "
                          "mean")


# U(1.2e154, 1.3e154) gaps: (a^2 + ab + b^2)/3 overflows, E[Y^2] = 1.56e308
# does not.
HUGE_GAPS = ("--interarrival",
             '{"kind": "uniform", "lower": 1.2e154, "upper": 1.3e154}',
             "--service", '{"kind": "exponential", "rate": 1e-154}')


@pytest.mark.parametrize("argv", [
    ("exact", "--discipline", "dropping"),
    ("exact", "--discipline", "preemption"),
    ("bound", "--kind", "corollary1"),
    ("kpmf",),
    ("simulate", "--discipline", "dropping", "--cycles", "2000"),
    ("simulate", "--discipline", "preemption", "--cycles", "2000"),
], ids=["exact-dropping", "exact-preemption", "corollary1", "kpmf",
        "simulate-dropping", "simulate-preemption"])
def test_a_second_moment_past_an_overflowing_sum_is_evaluated(capsys, argv):
    # Each op answers with a finite result, where check_pair once refused
    # the gaps with "interarrival second moment overflows to inf".
    code, payload = run_json(capsys, *argv, *HUGE_GAPS)
    assert code == 0
    result = payload["result"]
    values = ([p["probability"] for p in result["pmf"]] if argv[0] == "kpmf"
              else [result["value"]])
    assert all(math.isfinite(v) for v in values)


def test_kpmf_deterministic(capsys):
    code, payload = run_json(capsys, "kpmf",
                             "--interarrival", DET % 1, "--service", DET % 1.5,
                             "--k-max", "4", "--mc-samples", "10000")
    assert code == 0
    pmf = payload["result"]["pmf"]
    assert pmf[1]["k"] == 2 and pmf[1]["probability"] == pytest.approx(1.0)


def test_kpmf_text_prints_the_proven_half_width(capsys):
    pair = ("--interarrival", '{"kind": "uniform", "lower": 0, "upper": 2}',
            "--service", '{"kind": "uniform", "lower": 0, "upper": 1}',
            "--k-max", "3")
    code, out, _ = run(capsys, "kpmf", *pair)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "Pr(K=k)", "half-width"]
    _, payload = run_json(capsys, "kpmf", *pair)
    # The JSON ``ci`` stays the half-width over Z95.
    want = [row["ci"] * Z95 for row in payload["result"]["pmf"]]
    printed = [float(line.split()[2]) for line in lines[1:4]]
    assert printed == pytest.approx(want, rel=5e-3) and min(want) > 0.0


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


@pytest.mark.parametrize("kind", [t for t in ESTIMATORS if t != "exact"])
def test_bound_text_report_matches_its_json(capsys, kind):
    # gm11 needs an exponential service, corollary2 a preemption pair; E/E
    # serves every kind.
    argv = ("bound", "--kind", kind, "--interarrival", EXP1, "--service", EXP1)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "bound", "interarrival", "service", "value", "applicability"]
    _, payload = run_json(capsys, *argv)
    result = payload["result"]
    assert lines[0].split()[1] == result["kind"]
    assert lines[3].split()[1] == f"{result['value']:.6g}"
    assert lines[4].split()[1] == result["applicability"]


def test_bound_zero_success_exit_one(capsys):
    code, payload = run_json(capsys, "bound", "--kind", "corollary2",
                             "--interarrival", DET % 1, "--service", DET % 2)
    assert code == 1
    assert payload["error"] == "ZeroSuccessProbability"


# H2 gaps whose rates differ by more than the square root of the float
# range, against a service the uniformized record reads: the service spans
# far more jumps at the fast rate than the record's budget, so the record
# must decline and leave the pair to the lattice.
SPREAD_H2 = ('{"kind": "hyperexponential", "weights": [1e-09, 0.999999999], '
             '"rates": [1.2e+251, 1.3e-05]}')
SPREAD_RATES = [
    ("exact", "--discipline", "dropping", "--interarrival", SPREAD_H2,
     "--service", '{"kind": "rayleigh", "scale": 7909}'),
    ("kpmf", "--interarrival", SPREAD_H2,
     "--service", '{"kind": "rayleigh", "scale": 7909}'),
    ("bound", "--kind", "corollary1", "--interarrival",
     '{"kind": "hyperexponential", "weights": [0.5, 0.5], '
     '"rates": [2.1e-113, 1.5e+177]}', "--service", DET % "8e-56"),
]


def json_numbers(node):
    """Every number in a decoded JSON payload."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in json_numbers(item)]
    return [node] if isinstance(node, (int, float)) else []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", SPREAD_RATES, ids=lambda a: a[0])
def test_widely_spread_phase_rates_end_cleanly(capsys, argv):
    # Exit 0 with a finite result (the schema holds every half-width
    # non-negative), or exit 1 naming an AoiError; never a traceback.
    code, payload = run_json(capsys, *argv)
    if code == 1:
        assert issubclass(getattr(errors, payload["error"]), errors.AoiError)
    else:
        assert code == 0 and "result" in payload
        assert all(math.isfinite(x) for x in json_numbers(payload["result"]))


def test_usage_error_bad_distribution_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--discipline", "dropping",
              "--interarrival", '{"kind": "exponential", "rate": -1}',
              "--service", EXP1])
    assert exc.value.code == 2
    assert "--interarrival" in capsys.readouterr().err


@pytest.mark.parametrize("at_file", [False, True], ids=["inline", "at-file"])
def test_usage_error_deeply_nested_law(capsys, tmp_path, at_file):
    # JSON nested past the decoder's depth limit is the flag's usage error,
    # not a RecursionError traceback.
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["check-properties", "--dist", f"@{path}" if at_file else DEEP_JSON])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --dist: maximum recursion depth exceeded" in err


def test_usage_error_non_finite_law_parameter(capsys):
    # JSON 1e309 parses to inf, which every positivity check would pass.
    with pytest.raises(SystemExit) as exc:
        main(["check-properties", "--dist",
              '{"kind": "uniform", "lower": 0, "upper": 1e309}'])
    assert exc.value.code == 2
    assert "'upper' of kind 'uniform' must be finite" in capsys.readouterr().err


# A JSON integer past the float range, in one parameter of each kind: it
# once ended every command in an OverflowError traceback.
BIG = 10**400
HUGE_INT_LAWS = [
    ("exponential", "rate", {"rate": BIG}),
    ("shifted_exponential", "shift", {"rate": 1, "shift": BIG}),
    ("deterministic", "value", {"value": BIG}),
    ("uniform", "upper", {"lower": 0, "upper": BIG}),
    ("rayleigh", "scale", {"scale": BIG}),
    ("erlang", "shape", {"shape": BIG, "rate": 1}),
    ("hyperexponential", "rates", {"weights": [0.5, 0.5], "rates": [1, BIG]}),
]


@pytest.mark.parametrize("flag", ["--interarrival", "--service"])
@pytest.mark.parametrize("kind,name,params", HUGE_INT_LAWS,
                         ids=[kind for kind, _, _ in HUGE_INT_LAWS])
def test_usage_error_law_parameter_past_the_float_range(capsys, kind, name,
                                                        params, flag):
    laws = {"--interarrival": EXP1, "--service": EXP1,
            flag: json.dumps({"kind": kind, **params})}
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--discipline", "dropping", *(
            word for item in laws.items() for word in item), "--json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert f"argument {flag}: parameter {name!r} of kind {kind!r} must be finite" in err


def test_usage_error_boolean_law_parameter(capsys):
    # JSON true is the int 1 to Python, which every positivity check would
    # pass.
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--discipline", "dropping", "--interarrival", EXP1,
              "--service", '{"kind": "exponential", "rate": true}', "--json"])
    assert exc.value.code == 2
    assert "'rate' of kind 'exponential' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("law,message", [
    # A JSON object and a string are iterable, so the object's keys once
    # passed as the weights and the string's digits as the rates, and the
    # command exited 0.
    ('{"kind": "hyperexponential", "weights": {"0.25": 9, "0.75": 9}, '
     '"rates": "12"}',
     "parameter 'weights' of kind 'hyperexponential' must be a list of numbers"),
    ('{"kind": "exponential", "rate": "1"}',
     "parameter 'rate' of kind 'exponential' must be a number"),
    ('{"kind": "rayleigh", "scale": null}',
     "parameter 'scale' of kind 'rayleigh' must be a number"),
    ('{"kind": "deterministic", "value": [1]}',
     "parameter 'value' of kind 'deterministic' must be a number"),
    ('{"kind": "uniform", "lower": {}, "upper": 1}',
     "parameter 'lower' of kind 'uniform' must be a number"),
    ('{"kind": []}', "unknown distribution kind []"),
], ids=["h2-dict-and-string", "str", "null", "list", "dict", "list-kind"])
def test_usage_error_law_parameter_not_a_number(capsys, law, message):
    # Each once ended in a TypeError that named no parameter, or in none.
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--discipline", "dropping", "--interarrival", law,
              "--service", EXP1, "--json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "not supported" not in err
    assert "unhashable" not in err
    assert f"argument --interarrival: {message}" in err


def test_a_reader_that_stops_early_ends_the_command_with_141():
    # ``aoi kpmf ... | head -1``: the report is longer than a pipe's
    # buffer, so the write fails once the reader has gone; the command
    # once printed a BrokenPipeError traceback and exited 1.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "aoi.cli", "kpmf", *PAIR, "--k-max", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


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


@pytest.mark.parametrize("service", [
    '{"kind": "shifted_exponential", "rate": 2, "shift": 0}',
    '{"kind": "erlang", "shape": 1, "rate": 2}',
    '{"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [2, 2]}'],
    ids=["SE(2, 0)", "Erlang(1, 2)", "H2-equal-rates"])
def test_gm11_takes_an_exponential_service_under_any_name(capsys, service):
    gaps = '{"kind": "uniform", "lower": 0, "upper": 2}'
    code, payload = run_json(capsys, "bound", "--kind", "gm11",
                             "--interarrival", gaps, "--service", service)
    assert code == 0
    _, want = run_json(capsys, "bound", "--kind", "corollary1",
                       "--interarrival", gaps, "--service", service)
    assert payload["result"]["value"] == want["result"]["value"]
    assert payload["result"]["value"] == pytest.approx(1.49191, abs=5e-6)


@pytest.mark.parametrize("service", [
    '{"kind": "shifted_exponential", "rate": 2, "shift": 0.5}', DET % 1,
    '{"kind": "uniform", "lower": 0, "upper": 1}'],
    ids=["SE(2, 0.5)", "D", "U"])
def test_gm11_refuses_a_service_that_is_not_exponential(capsys, service):
    code, out, err = run(capsys, "bound", "--kind", "gm11",
                         "--interarrival", EXP1, "--service", service)
    assert code == 2
    assert "needs an exponential service law" in err and out == ""


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
    (("kpmf", "--interarrival", EXP1, "--service",
      '{"kind": "exponential", "rate": 2}', "--k-max", "1000000000"),
     "k_max must be >= 1 and at most 262144, got 1000000000"),
    (("simulate", "--discipline", "dropping", *PAIR, "--cycles", "0"),
     "target_cycles must be >= 2"),
    (("simulate", "--discipline", "dropping", *PAIR, "--cycles", "1"),
     "target_cycles must be >= 2"),
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
      "--service", EXP1), "interarrival second moment overflows to inf"),
    (("simulate", "--discipline", "dropping", "--interarrival", DET % 3e299,
      "--service", EXP1), "interarrival second moment overflows to inf"),
    (("simulate", "--discipline", "dropping", "--interarrival", EXP_TINY,
      "--service", EXP1), "interarrival second moment underflows to 0"),

    (("exact", "--discipline", "dropping", "--interarrival", EXP_TINY,
      "--service", EXP_TINY), "interarrival second moment underflows to 0"),
    (("exact", "--discipline", "preemption", "--interarrival", EXP_TINY,
      "--service", EXP_TINY), "interarrival second moment underflows to 0"),
], ids=["mc-samples", "seed", "seed-check-properties", "seed-sweep",
        "k-max", "huge-k-max", "cycles", "one-cycle", "max-events",
        "zero-mean-interarrival", "zero-mean-interarrival-preemption",
        "zero-mean-interarrival-corollary2", "zero-mean-interarrival-simulate",
        "overflowing-interarrival-square-simulate",
        "overflowing-deterministic-square-simulate",
        "underflowing-interarrival-square-simulate",
        "underflowing-interarrival-square-dropping",
        "underflowing-interarrival-square-preemption"])
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


def test_block_record_overflow_names_its_cause(capsys):
    # The rate-1e-160 block climbs a phase in a U(0, 2) gap with chance
    # T_0 of about 1e-160, so E[K^2], about 2/T_0^2, overflows: the error
    # names E[K^2] and that T_0, not the preemption success probability.
    service = ('{"kind": "hyperexponential", "weights": [0.5, 0.5], '
               '"rates": [1e-160, 1]}')
    code, payload = run_json(
        capsys, "exact", "--discipline", "dropping", "--interarrival",
        '{"kind": "uniform", "lower": 0, "upper": 2}', "--service", service)
    assert code == 1
    assert payload["error"] == "TruncationNotReached"
    prefix = "E[K^2] overflows: smallest T_0 = "
    assert payload["message"].startswith(prefix)
    assert float(payload["message"][len(prefix):]) == pytest.approx(1e-160)


def test_mg11_service_square_out_of_range(capsys, tmp_path):
    # mg11 keeps no moment guard of its own.  An E[S^2] that overflows
    # stops the mean-matched pair's one-phase record: exit 1, and a
    # divergent cell in a sweep.  One that underflows to 0 leaves the
    # matched pair's age, E[Y^2]/(2E[Y]) + E[S] = 1 + 1e-300.
    code, payload = run_json(capsys, "bound", "--kind", "mg11",
                             "--interarrival", EXP1, "--service", EXP_HUGE)
    assert code == 1
    assert payload["error"] == "TruncationNotReached"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SWEEP_SPEC, "estimators": ["mg11"],
                                     "service": json.loads(EXP_HUGE)}),
                         encoding="utf-8")
    code, payload = run_json(capsys, "sweep", "--spec", str(spec_path),
                             "--csv", str(tmp_path / "out.csv"))
    assert code == 0
    assert [r["value"] for r in payload["result"]["rows"]] == [None, None]
    code, payload = run_json(capsys, "bound", "--kind", "mg11",
                             "--interarrival", EXP1, "--service", EXP_TINY)
    assert code == 0
    assert payload["result"]["value"] == 1.0
    assert payload["result"]["half_width"] == 0.0


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


def test_non_integer_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("AOI_SEED", "seven")
    code, out, err = run(capsys, "simulate", "--discipline", "dropping",
                         "--interarrival", EXP1, "--service", EXP1,
                         "--cycles", "500")
    assert code == 2 and out == ""
    assert "aoi: invalid AOI_SEED='seven': not an integer" in err


def test_same_argv_same_stdout(capsys):
    argv = ("simulate", "--discipline", "preemption",
            "--interarrival", EXP1, "--service", EXP1,
            "--cycles", "2000", "--seed", "3", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_main_reuses_one_parser(capsys, monkeypatch, tmp_path):
    # Each call must print and exit as it does on a freshly built parser,
    # whatever ran before it in the process.
    argvs = [
        ("exact", "--discipline", "dropping", *PAIR, "--json"),
        ("bound", "--kind", "corollary2", "--interarrival", DET % 1,
         "--service", DET % 2),                                 # AoiError
        ("simulate", "--discipline", "sideways", *PAIR),        # argparse usage
        ("kpmf", "--interarrival", EXP1, "--service", DET % 1, "--k-max", "3"),
        ("simulate", "--discipline", "dropping", *PAIR, "--cycles", "50",
         "--trace", str(tmp_path / "trace.csv")),
        ("check-properties", "--dist", DET % 1, "--json"),
        ("exact", "--discipline", "dropping", *PAIR, "--json"),
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    assert [call(argv) for argv in argvs] == fresh
    assert len(built) <= 1
    assert [code for code, _, _ in fresh] == [0, 1, 2, 0, 0, 0, 0]


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
    # the text report names both files
    code, out, _ = run(capsys, "sweep", "--spec", str(spec_path),
                       "--csv", str(csv_path), "--chart", str(svg_path))
    assert code == 0
    assert out.splitlines()[-2:] == [f"csv             {csv_path}",
                                     f"chart           {svg_path}"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("flag", ["--trace", "--csv", "--chart"])
@pytest.mark.parametrize("place", ["missing-directory", "a-directory"])
def test_an_unwritable_output_is_a_usage_error(capsys, tmp_path, flag, place):
    # One line on stderr and exit 2, no traceback; a missing directory is
    # refused before any work, so the sweep writes no file at all.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    bad = str(tmp_path / "missing" / "out" if place == "missing-directory"
              else tmp_path)
    if flag == "--trace":
        argv = ["simulate", "--discipline", "dropping", "--interarrival",
                DET % 2, "--service", DET % 1, "--cycles", "20", "--trace", bad]
    else:
        outputs = {"--csv": str(tmp_path / "out.csv"),
                   "--chart": str(tmp_path / "out.svg"), flag: bad}
        argv = ["sweep", "--spec", str(spec_path), *(
            v for item in outputs.items() for v in item)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"aoi {argv[0]}: cannot write {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if place == "missing-directory":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("options", [
    {"mc_samples": 20000, "walk_only": True}, {"k_truncation_epsilon": 1e-8},
    {"quadrature_rel_tol": 1e-9}, {"mc_samples": 100}],
    ids=["old-options", "deleted-walk-option", "deleted-quadrature-option",
         "out-of-range-option"])
def test_sweep_spec_options_are_not_read(capsys, tmp_path, options):
    # No estimator reads an option: a spec carrying any ``options`` runs
    # as the spec without them does, as any key the spec does not read.
    outputs = []
    for spec in ({**SWEEP_SPEC, "options": options},
                 {k: v for k, v in SWEEP_SPEC.items() if k != "options"}):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        csv_path = tmp_path / f"{len(outputs)}.csv"
        code, _, err = run(capsys, "sweep", "--spec", str(spec_path),
                           "--csv", str(csv_path))
        assert code == 0, err
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("spec,named", [
    ({k: v for k, v in SWEEP_SPEC.items() if k != "grid"}, "grid"),
    (None, "No such file"),
    ({**SWEEP_SPEC, "base_seed": -1}, "base_seed must fit in 64 bits"),
    ({**SWEEP_SPEC, "base_seed": 2**64}, "base_seed must fit in 64 bits"),
    ({**SWEEP_SPEC, "base_seed": 2.5}, "base_seed must be an integer"),
    ({**SWEEP_SPEC, "sim_cycles": 2.5}, "sim_cycles must be an integer"),
    ({**SWEEP_SPEC, "sim_cycles": 1}, "sim_cycles must be >= 2"),
    ({**SWEEP_SPEC, "sim_cycles": 1e20},
     f"sim_cycles must be >= 2 and at most {1 << 24}, got 1000"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "uniform", "upper": 2.0},
      "swept_param": "lower", "grid": [0.5, 3.0]}, "upper must exceed lower"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "deterministic"},
      "swept_param": "value", "grid": [0.0, 1.0], "estimators": ["exact"]},
     "interarrival law must have a positive mean"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "deterministic"},
      "swept_param": "value", "grid": [0.0, 1.0], "estimators": ["simulate"]},
     "interarrival law must have a positive mean"),
    # JSON nested past the decoder's depth limit, written as text
    (DEEP_JSON, "maximum recursion depth exceeded"),
    # an integer past the float range, in the grid or the template
    ({**SWEEP_SPEC, "grid": [0.5, BIG]}, "grid must hold finite numbers"),
    ({**SWEEP_SPEC, "interarrival": {"kind": "uniform", "upper": BIG},
      "swept_param": "lower", "grid": [0.5, 1.0]},
     "parameter 'upper' of kind 'uniform' must be finite"),
], ids=["missing-key", "missing-file", "negative-base-seed", "wide-base-seed",
        "fractional-base-seed", "fractional-sim-cycles", "one-sim-cycle",
        "huge-sim-cycles",
        "bad-later-grid-point",
        "degenerate-pair-exact", "degenerate-pair-simulate", "deeply-nested",
        "huge-int-grid", "huge-int-template"])
def test_sweep_bad_spec_is_usage_error(capsys, tmp_path, spec, named):
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec),
                             encoding="utf-8")
    code, out, err = run(capsys, "sweep", "--spec", str(spec_path),
                         "--csv", str(tmp_path / "out.csv"))
    assert code == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("name", 3), ("grid", [True, 2]), ("grid", ["0.5", "2"]),
    ("estimators", "exact")],
    ids=["numeric-name", "boolean-grid", "string-grid", "string-estimators"])
def test_sweep_spec_field_of_the_wrong_type_is_usage_error(capsys, tmp_path,
                                                          field, value):
    # Refused before any run, naming the field: a numeric name once
    # crashed the chart after the CSV was written.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SWEEP_SPEC, field: value}),
                         encoding="utf-8")
    outputs = tmp_path / "out.csv", tmp_path / "out.svg"
    code, _, err = run(capsys, "sweep", "--spec", str(spec_path),
                       "--csv", str(outputs[0]), "--chart", str(outputs[1]))
    assert code == 2
    assert "bad --spec" in err and f"{field} must" in err
    assert "Traceback" not in err
    assert not any(path.exists() for path in outputs)


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


def test_every_command_runs_without_scipy(tmp_path):
    # The package runs on NumPy alone: with every SciPy import refused,
    # each subcommand exits 0 on all 7 families, preemption on phase-free
    # pairs ends in its age or its domain error (exit 1), and SciPy never
    # loads.
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
D = lambda v: {"kind": "deterministic", "value": v}
R = lambda scale: {"kind": "rayleigh", "scale": scale}
SE = lambda rate, shift: {"kind": "shifted_exponential", "rate": rate,
                          "shift": shift}
U02 = {"kind": "uniform", "lower": 0, "upper": 2}
for y, s, code in ((U02, SE(1e6, 1), 0), (R(1), SE(1e6, 1), 0),
                   (SE(1, 0.1), D(1e4), 1), (R(1), SE(1, 1e6), 1),
                   (U02, {"kind": "uniform", "lower": 0.5, "upper": 1.5}, 0),
                   (D(1), SE(2, 0.2), 0), (R(1), R(0.5), 0)):
    assert main(["exact", "--discipline", "preemption", "--interarrival",
                 json.dumps(y), "--service", json.dumps(s)]) == code, (y, s)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    laws = json.dumps([d.to_dict() for d in ALL_KINDS])
    done = subprocess.run([sys.executable, "-c", script, laws, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_command_imports_the_xml_or_network_stack(tmp_path):
    # One fresh interpreter runs every subcommand once.  None may load
    # xml, urllib, http, ssl or email (xml.sax.saxutils pulls in all of
    # them), but urllib.parse, which pathlib itself imports; orjson loads
    # with the first traced run and not before.
    script = """
import json, sys
from pathlib import Path

from aoi.cli import main

out = Path(sys.argv[1])
E = json.dumps({"kind": "exponential", "rate": 1.0})
pair = ["--interarrival", json.dumps({"kind": "uniform", "lower": 0,
                                      "upper": 2}), "--service", E]
spec = out / "spec.json"
spec.write_text(json.dumps({
    "name": "imports", "discipline": "dropping",
    "interarrival": {"kind": "exponential"}, "swept_param": "rate",
    "grid": [0.5, 1.0, 2.0], "service": {"kind": "exponential", "rate": 1.0},
    "sim_cycles": 200, "estimators": ["simulate", "exact", "corollary1"]}))
simulate = ["simulate", "--discipline", "dropping", "--cycles", "200", *pair]
for argv in (simulate, ["exact", "--discipline", "dropping", *pair],
             ["bound", "--kind", "corollary1", *pair], ["kpmf", *pair],
             ["check-properties", "--dist", E],
             ["sweep", "--spec", str(spec), "--csv", str(out / "s.csv"),
              "--chart", str(out / "s.svg")]):
    assert main([*argv, "--json"]) == 0, argv
    assert "orjson" not in sys.modules, argv
assert main([*simulate, "--trace", str(out / "t.csv"), "--json"]) == 0
assert "orjson" in sys.modules
assert "<svg" in (out / "s.svg").read_text(encoding="utf-8")
stack = sorted(m for m in sys.modules
               if m.split(".")[0] in ("xml", "urllib", "http", "ssl", "email")
               and m not in ("urllib", "urllib.parse"))
assert not stack, stack
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_only_a_simulate_row_seeds_a_sweep(tmp_path):
    # One fresh interpreter runs an exact/corollary2 sweep and the other
    # commands that draw nothing: none loads numpy.random, which seeding a
    # grid point imports (with secrets, hmac and hashlib).  The same sweep
    # with a simulate row loads it, and its other rows keep their bytes.
    script = """
import json, sys
from pathlib import Path

from aoi.cli import main

out = Path(sys.argv[1])
E = json.dumps({"kind": "exponential", "rate": 1.0})
pair = ["--interarrival", json.dumps({"kind": "uniform", "lower": 0,
                                      "upper": 2}), "--service", E]
spec = {"name": "seeds", "discipline": "preemption",
        "interarrival": {"kind": "exponential"}, "swept_param": "rate",
        "grid": [0.5, 1.0, 2.0],
        "service": {"kind": "shifted_exponential", "rate": 1.0, "shift": 0.5},
        "sim_cycles": 200, "estimators": ["exact", "corollary2"]}
(out / "exact.json").write_text(json.dumps(spec))
(out / "sim.json").write_text(json.dumps(
    {**spec, "estimators": ["exact", "simulate", "corollary2"]}))
for argv in (["sweep", "--spec", str(out / "exact.json"),
              "--csv", str(out / "exact.csv"), "--chart", str(out / "exact.svg")],
             ["exact", "--discipline", "dropping", *pair],
             ["exact", "--discipline", "preemption", *pair],
             ["bound", "--kind", "corollary1", *pair], ["kpmf", *pair],
             ["check-properties", "--dist", E]):
    assert main([*argv, "--json"]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
assert main(["sweep", "--spec", str(out / "sim.json"),
             "--csv", str(out / "sim.csv"), "--json"]) == 0
assert "numpy.random" in sys.modules
exact = (out / "exact.csv").read_text().splitlines()
assert [r for r in (out / "sim.csv").read_text().splitlines()
        if ",simulate," not in r] == exact
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
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


H2_SERVICE = {"kind": "hyperexponential", "weights": [0.4, 0.6],
              "rates": [0.5, 3.0]}


def h2_service(c):
    return {**H2_SERVICE, "rates": [r / c for r in H2_SERVICE["rates"]]}


@pytest.mark.parametrize("c", [1e-150, 1e-6, 1e6, 1e150])
def test_dropping_with_hyperexponential_service_rescales(capsys, c):
    # E[S] = c and E[S^2] = 10/3 c^2: at exponential arrivals of rate 1/c
    # the age is c + (10/3)/(2 * 2) c + c = 17/6 c, in closed form.
    code, payload = run_json(
        capsys, "exact", "--discipline", "dropping", "--interarrival",
        json.dumps({"kind": "exponential", "rate": 1.0 / c}), "--service",
        json.dumps(h2_service(c)))
    assert code == 0
    assert payload["result"]["value"] == pytest.approx(17.0 / 6.0 * c,
                                                       rel=1e-12)


@pytest.mark.parametrize("service,method", [
    ({"kind": "erlang", "shape": 2, "rate": 2.0}, "closed_form"),
    ({"kind": "rayleigh", "scale": 0.5}, "lattice")], ids=["erlang", "rayleigh"])
@pytest.mark.parametrize("c", [1e-150, 1e150])
def test_dropping_with_erlang_or_rayleigh_service_rescales(capsys, c, service,
                                                            method):
    # The Erlang block record reads the gaps' mixed-Poisson law at the
    # service rate; the lattice searches the service's ccdf for its top
    # point.  Both work in units of the time scale.
    values = []
    for scale in (1.0, c):
        scaled = dict(service)
        if "rate" in scaled:
            scaled["rate"] /= scale
        else:
            scaled["scale"] *= scale
        code, payload = run_json(
            capsys, "exact", "--discipline", "dropping", "--interarrival",
            json.dumps({"kind": "uniform", "lower": 0.0, "upper": 2.0 * scale}),
            "--service", json.dumps(scaled))
        assert code == 0 and payload["result"]["method"] == method
        values.append(payload["result"]["value"] / scale)
    assert values[1] == pytest.approx(values[0], rel=1e-12)


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


LAW = '{"kind": "uniform", "lower": 0, "upper": 2}'
PARSE_CASES = {
    # every subcommand with each of its flags, then with only the required
    "simulate": ["simulate", "--discipline", "dropping", "--interarrival",
                 EXP1, "--service", LAW, "--cycles", "50", "--max-events",
                 "5000", "--trace", "t.csv", "--seed", "3", "--json"],
    "simulate-required": ["simulate", "--discipline", "preemption", *PAIR],
    "exact": ["exact", "--discipline", "preemption", *PAIR, "--mc-samples",
              "20000", "--seed", "4", "--json"],
    "exact-required": ["exact", "--discipline", "dropping", *PAIR],
    "bound": ["bound", "--kind", "corollary1", *PAIR, "--mc-samples", "20000",
              "--seed", "5", "--json"],
    "bound-required": ["bound", "--kind", "gm11", *PAIR],
    "kpmf": ["kpmf", *PAIR, "--k-max", "4", "--mc-samples", "20000",
             "--seed", "6", "--json"],
    "kpmf-required": ["kpmf", *PAIR],
    "check-properties": ["check-properties", "--dist", LAW, "--seed", "7",
                         "--json"],
    "check-properties-required": ["check-properties", "--dist", LAW],
    "sweep": ["sweep", "--spec", "spec.json", "--csv", "out.csv", "--chart",
              "out.svg", "--title", "T", "--seed", "8", "--json"],
    "sweep-required": ["sweep", "--spec", "spec.json", "--csv", "out.csv"],
    # the = form, a law from a file, flags in another order, abbreviations,
    # a negative number and a repeated flag
    "equals-and-file": ["kpmf", "--interarrival=@law.json", "--service",
                        EXP1, "--k-max=3"],
    "reordered": ["exact", "--json", "--service", LAW, "--discipline",
                  "dropping", "--interarrival", "@law.json"],
    "abbreviated": ["simulate", "--disc", "dropping", *PAIR, "--cyc", "9"],
    "negative-seed": ["exact", "--discipline", "dropping", *PAIR, "--seed",
                      "-1"],
    "repeated": ["kpmf", *PAIR, "--k-max", "3", "--k-max", "5"],
    # usage errors
    "unknown-flag": ["exact", "--discipline", "dropping", *PAIR, "--bogus"],
    "leftovers": ["exact", "--discipline", "dropping", *PAIR, "extra",
                  "--bogus", "x"],
    "missing-required": ["exact", "--discipline", "dropping",
                         "--interarrival", EXP1],
    "bad-law-json": ["exact", "--discipline", "dropping", "--interarrival",
                     "{not json", "--service", EXP1],
    "bad-law-file": ["exact", "--discipline", "dropping", "--interarrival",
                     "@missing.json", "--service", EXP1],
    "bad-choice": ["exact", "--discipline", "fifo", *PAIR],
    "bad-kind": ["bound", "--kind", "mm11", *PAIR],
    "fractional-cycles": ["simulate", "--discipline", "dropping", *PAIR,
                          "--cycles", "2.5"],
    "missing-value": ["kpmf", *PAIR, "--k-max"],
    "no-arguments": [],
    "help": ["-h"],
    "subcommand-help": ["exact", "-h"],
    "unknown-command": ["frobnicate", "--json"],
    "option-before-command": ["--json", "exact", "--discipline", "dropping",
                              *PAIR],
    # where a well-formed argv ends: a store flag followed by a flag, a
    # value that looks like a flag, the -- terminator, help after valid
    # flags, --json twice, an empty value, a good law then a bad one, and
    # a law nested past the JSON decoder's depth limit
    "flag-for-value": ["exact", "--discipline", "dropping", *PAIR, "--seed",
                       "--json"],
    "flag-like-value": ["simulate", "--discipline", "dropping", *PAIR,
                        "--trace", "-x.csv"],
    "terminator": ["kpmf", *PAIR, "--", "--k-max", "3"],
    "help-after-flags": ["exact", "--discipline", "dropping", *PAIR,
                         "--help"],
    "json-twice": ["check-properties", "--dist", LAW, "--json", "--json"],
    "empty-value": ["sweep", "--spec", "spec.json", "--csv", "out.csv",
                    "--title", ""],
    "good-then-bad-law": ["check-properties", "--dist", LAW, "--dist",
                          "{not json"],
    "deep-law": ["check-properties", "--dist", DEEP_JSON],
}


def parse_outcome(capsys, parse, argv):
    """What parsing ``argv`` gives: the namespace or the exit code, and
    the bytes printed on stdout and stderr."""
    try:
        result, code = parse(list(argv)), None
    except SystemExit as exc:
        result, code = None, exc.code
    out, err = capsys.readouterr()
    return result, code, out, err


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES)
def test_one_pass_parse_matches_the_parser_tree(capsys, tmp_path,
                                                monkeypatch, argv):
    # The subcommand's own parser gives the namespace the two-pass parse of
    # the whole tree gives, and every usage error its stderr bytes and exit
    # code; help its stdout.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "law.json").write_text(LAW, encoding="utf-8")
    want = parse_outcome(capsys, cli.build_parser().parse_args, argv)
    got = parse_outcome(capsys, cli._parse, argv)
    assert got == want
    assert want[0] is not None or want[1] in (0, 2)


def test_one_pass_parse_reads_sys_argv(capsys, monkeypatch):
    argv = PARSE_CASES["kpmf"]
    monkeypatch.setattr(sys, "argv", ["aoi", *argv])
    assert cli._parse(None) == cli.build_parser().parse_args(argv)


def test_an_argv_the_walk_refuses_takes_one_top_level_pass(capsys, tmp_path,
                                                          monkeypatch):
    # Every argv the walk does not read, from a subcommand's usage error
    # to one that names no subcommand first, takes exactly one pass of the
    # top-level parser and gets the parser tree's outcome; every argv the
    # walk reads takes none.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "law.json").write_text(LAW, encoding="utf-8")
    parse, calls = cli._parser().parse_args, []

    def counted(argv):
        calls.append(list(argv))
        return parse(argv)
    monkeypatch.setattr(cli._parser(), "parse_args", counted)
    refused = []
    for name, argv in PARSE_CASES.items():
        want = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        calls.clear()
        assert parse_outcome(capsys, cli._parse, argv) == want, name
        assert calls in ([], [argv]), name
        refused += [name] * len(calls)
    assert refused == [
        "equals-and-file", "abbreviated", "negative-seed", "unknown-flag",
        "leftovers", "missing-required", "bad-law-json", "bad-law-file",
        "bad-choice", "bad-kind", "fractional-cycles", "missing-value",
        "no-arguments", "help", "subcommand-help", "unknown-command",
        "option-before-command", "flag-for-value", "flag-like-value",
        "terminator", "help-after-flags", "good-then-bad-law", "deep-law"]


def test_a_well_formed_argv_takes_no_argparse_pass(tmp_path, monkeypatch):
    # Every subcommand with all of its flags or only its required ones,
    # reordered or with a flag repeated, is read by the walk alone, to the
    # namespace the parser tree gives.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "law.json").write_text(LAW, encoding="utf-8")
    names = [name for name in PARSE_CASES
             if name.removesuffix("-required") in cli._subparsers()]
    wants = {name: cli.build_parser().parse_args(PARSE_CASES[name])
             for name in [*names, "reordered", "repeated"]}
    assert len(names) == 2 * len(cli._subparsers())

    def refused(*args, **kwargs):
        raise AssertionError("argparse pass")
    for parser in cli._subparsers().values():
        monkeypatch.setattr(parser, "parse_known_args", refused)
    monkeypatch.setattr(cli._parser(), "parse_args", refused)
    for name, want in wants.items():
        assert cli._parse(PARSE_CASES[name]) == want, name


def test_a_json_report_builds_no_text(capsys, tmp_path, monkeypatch):
    # --json prints no text report, so no subcommand builds one: no law's
    # describe() and no _fmt call.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")

    def refused(*args):
        raise AssertionError("text report built")
    monkeypatch.setattr(Distribution, "describe", refused)
    monkeypatch.setattr(cli, "_fmt", refused)
    commands = [
        ("simulate", "--discipline", "dropping", *PAIR, "--cycles", "50",
         "--trace", str(tmp_path / "trace.csv")),
        ("exact", "--discipline", "dropping", *PAIR),
        ("bound", "--kind", "corollary2", *PAIR),
        ("kpmf", *PAIR),
        ("check-properties", "--dist", LAW),
        ("sweep", "--spec", str(spec), "--csv", str(tmp_path / "out.csv"),
         "--chart", str(tmp_path / "out.svg")),
    ]
    assert {argv[0] for argv in commands} == set(cli._subparsers())
    for argv in commands:
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload["command"] == argv[0]


def test_every_json_report_is_one_line(capsys, tmp_path):
    # Each subcommand's --json object, and the domain error's, is printed
    # on one line that validates against the schema.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    commands = [
        ("simulate", "--discipline", "dropping", *PAIR, "--cycles", "50"),
        ("exact", "--discipline", "dropping", "--interarrival", LAW,
         "--service", EXP1),
        ("bound", "--kind", "corollary2", *PAIR),
        ("kpmf", "--interarrival", LAW, "--service", LAW),
        ("check-properties", "--dist", LAW),
        ("sweep", "--spec", str(spec), "--csv", str(tmp_path / "out.csv")),
        ("simulate", "--discipline", "preemption", "--interarrival", DET % 1,
         "--service", DET % 2, "--cycles", "10", "--max-events", "10"),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv, "--json")
        assert out.endswith("\n") and out.count("\n") == 1, argv
        payload = json.loads(out)
        jsonschema.validate(payload, CLI_RESULT_SCHEMA)
        assert payload["command"] == argv[0]
        error = "DivergentAge" if "--max-events" in argv else None
        assert (code, payload.get("error")) == (1 if error else 0, error)


@pytest.mark.parametrize("discipline", ["dropping", "preemption"])
def test_a_huge_cycle_count_is_a_usage_error(capsys, discipline):
    # Past the cycle cap, one stderr line and exit 2 before any draw.
    code, out, err = run(capsys, "simulate", "--discipline", discipline,
                         *PAIR, "--cycles", "100000000000000000000")
    assert code == 2 and out == ""
    assert err == ("aoi simulate: target_cycles must be >= 2 and at most "
                   f"{1 << 24}, got 100000000000000000000\n")
