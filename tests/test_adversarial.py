"""Seeded slices of adversarial inputs for ``aoi simulate`` (with and
without ``--trace``), the lattice's ``aoi exact`` and ``aoi kpmf``,
``aoi check-properties`` and ``aoi sweep --chart``.

Each simulate, exact, kpmf and check-properties case must end in one of
three ways: exit 0 with a finite, schema-valid result (and, traced, the
trace that the reference writer gives for the same arrays), exit 1 with a
named ``AoiError`` payload, or a usage error (exit 2) that names one of
``USAGE_RULES``.  Each charted case must exit 0 with an SVG that parses
back to the title given.  A traceback or a warning fails any case.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET

import jsonschema
import pytest

from aoi import cli, errors, sim
from aoi.analytic import Pair, k_pmf
from aoi.distributions import Rayleigh, ShiftedExponential
from aoi.schema import CLI_RESULT_SCHEMA
from test_cli import refuse_constant
from trace_oracle import write_trace

# Each law's kind by its short name, and its parameters in order.
LAWS = {
    "E": ("exponential", "rate"),
    "SE": ("shifted_exponential", "rate", "shift"),
    "D": ("deterministic", "value"),
    "U": ("uniform", "lower", "upper"),
    "R": ("rayleigh", "scale"),
    "Erlang": ("erlang", "shape", "rate"),
    "H2": ("hyperexponential", "weights", "rates"),
}
# (discipline, interarrival, service), drawn once from
# numpy.random.default_rng(47): disciplines alternate, the interarrival
# kind cycles through LAWS, the service kind is uniform over it; each
# parameter is log-uniform over 1e-6 to 1e6 at 3 digits (an Erlang shape
# uniform over 1 to 8, an H2 weight uniform over 0.01 to 0.99 at 2 digits,
# a U lower end or an SE shift 0 half or a fifth of the time); in one
# case of ten, one law's rate, scale, value or U width is instead one of
# 5e-324, 2.5e-308, 1e-300, 3e299, 1e300 and the largest double.
# Rounding lets some U laws collapse to a point.  The last two cases take
# a service at the smallest double and a service rate at the largest.
TRACE_CASES = [
    ("dropping", ("E", 0.382), ("E", 1.76e-05)),
    ("preemption", ("E", 0.000254), ("E", 19600.0)),
    ("dropping", ("SE", 1010.0, 4.43), ("E", 7260.0)),
    ("preemption", ("SE", 0.0053, 67000.0), ("E", 0.000211)),
    ("dropping", ("D", 4.1), ("SE", 3e+299, 283000.0)),
    ("preemption", ("D", 593.0), ("E", 232.0)),
    ("dropping", ("U", 0, 67400.0), ("Erlang", 3, 860000.0)),
    ("preemption", ("U", 0, 60.7), ("E", 23900.0)),
    ("dropping", ("R", 1.55e-06), ("U", 0.000679, 0.000681)),
    ("preemption", ("R", 0.134), ("SE", 1.35e-05, 0)),
    ("dropping", ("Erlang", 2, 3.44), ("R", 5.95)),
    ("preemption", ("Erlang", 3, 0.000119), ("U", 0.647, 1.59)),
    ("dropping", ("H2", (0.94, 0.06), (0.179, 6.01e-06)), ("U", 216.0, 216.0)),
    ("preemption", ("H2", (0.31, 0.69), (1.16, 10.6)), ("E", 1e-300)),
    ("dropping", ("E", 3.37e-06), ("SE", 1e-300, 10.4)),
    ("preemption", ("E", 1.07e-05), ("E", 21800.0)),
    ("dropping", ("SE", 106.0, 1750.0), ("SE", 0.404, 1.97e-05)),
    ("preemption", ("SE", 75.5, 53.4), ("Erlang", 5, 0.466)),
    ("dropping", ("D", 343000.0), ("R", 0.239)),
    ("preemption", ("D", 2.22), ("D", 426000.0)),
    ("dropping", ("U", 0, 300.0), ("H2", (0.98, 0.02), (1e-300, 0.533))),
    ("preemption", ("U", 0, 0.504), ("R", 0.000149)),
    ("dropping", ("R", 0.00096), ("E", 273000.0)),
    ("preemption", ("R", 75.9), ("R", 1.87)),
    ("dropping", ("Erlang", 6, 0.00184), ("U", 0, 3.22e-05)),
    ("preemption", ("Erlang", 5, 305.0), ("H2", (0.6, 0.4), (23.4, 21.1))),
    ("dropping", ("H2", (0.85, 0.15), (0.0899, 1.26)), ("U", 83400.0, 523000.0)),
    ("preemption", ("H2", (0.66, 0.34), (32700.0, 13500.0)), ("SE", 0.000784, 0)),
    ("dropping", ("E", 35.6), ("SE", 1.27, 101.0)),
    ("preemption", ("E", 0.00029), ("SE", 0.00371, 0.328)),
    ("dropping", ("SE", 0.000162, 24500.0), ("D", 2.2e-06)),
    ("preemption", ("SE", 0.0241, 0.073), ("U", 0, 0.00213)),
    ("dropping", ("D", 3e+299), ("U", 0, 5.67e-06)),
    ("preemption", ("D", 5.63e-06), ("E", 304.0)),
    ("dropping", ("U", 0, 4630.0), ("H2", (0.12, 0.88), (48900.0, 2.74))),
    ("preemption", ("U", 0, 0.0964), ("SE", 0.0866, 0.000247)),
    ("dropping", ("R", 1.07e-06), ("D", 0.337)),
    ("preemption", ("R", 0.0201), ("SE", 777000.0, 10100.0)),
    ("dropping", ("Erlang", 5, 7.83), ("D", 1.09)),
    ("preemption", ("Erlang", 2, 100.0), ("SE", 5140.0, 1.09e-05)),
    ("dropping", ("H2", (0.38, 0.62), (0.00606, 5.51)), ("E", 0.00259)),
    ("preemption", ("H2", (0.87, 0.13), (352.0, 0.000104)), ("Erlang", 5, 0.0153)),
    ("dropping", ("E", 5.88e-06), ("SE", 0.000979, 0)),
    ("preemption", ("E", 449.0), ("SE", 1e-300, 0)),
    ("dropping", ("SE", 4.54e-05, 2.02e-06), ("E", 48700.0)),
    ("preemption", ("SE", 7.36e-06, 3.99e-05), ("Erlang", 3, 6640.0)),
    ("dropping", ("D", 0.168), ("R", 0.0022)),
    ("preemption", ("D", 7.22e-06), ("E", 0.0365)),
    ("dropping", ("U", 0, 472.0), ("Erlang", 4, 3.55e-05)),
    ("preemption", ("U", 0, 12.3), ("U", 0, 0.00282)),
    ("dropping", ("R", 110.0), ("SE", 0.01, 0)),
    ("preemption", ("R", 12800.0), ("R", 120000.0)),
    ("dropping", ("Erlang", 7, 4240.0), ("U", 0.126, 0.412)),
    ("preemption", ("Erlang", 8, 1.63e-05), ("Erlang", 4, 15500.0)),
    ("dropping", ("H2", (0.8, 0.2), (1.23, 0.922)), ("D", 361.0)),
    ("preemption", ("H2", (0.13, 0.87), (0.00165, 0.208)), ("SE", 0.000944, 0.0323)),
    ("dropping", ("E", 0.000642), ("U", 0.046, 450000.0)),
    ("preemption", ("E", 8780.0), ("E", 758.0)),
    ("dropping", ("SE", 70300.0, 0), ("D", 2.63)),
    ("preemption", ("SE", 0.096, 3.97e-06), ("H2", (0.35, 0.65), (4.1e-06, 1.46e-06))),
    ("dropping", ("D", 59600.0), ("Erlang", 4, 0.00976)),
    ("preemption", ("D", 527.0), ("H2", (0.24, 0.76), (497000.0, 950.0))),
    ("dropping", ("U", 0, 0.849), ("Erlang", 8, 0.25)),
    ("preemption", ("U", 3.34e-06, 0.0668), ("Erlang", 1, 4.06e-05)),
    ("dropping", ("R", 0.237), ("U", 101.0, 105.0)),
    ("preemption", ("R", 0.00218), ("R", 0.000729)),
    ("dropping", ("Erlang", 4, 8.68e-06), ("U", 798.0, 799.0)),
    ("preemption", ("Erlang", 3, 7.98e-06), ("E", 1e-300)),
    ("dropping", ("H2", (0.17, 0.83), (0.00718, 0.0101)), ("U", 0, 12.9)),
    ("preemption", ("H2", (0.07, 0.93), (0.808, 698.0)), ("R", 0.0292)),
    ("dropping", ("E", 0.0446), ("Erlang", 3, 0.803)),
    ("preemption", ("E", 6240.0), ("R", 0.0137)),
    ("dropping", ("SE", 104000.0, 102.0), ("Erlang", 4, 0.0203)),
    ("preemption", ("SE", 2.02, 0.00807), ("E", 0.658)),
    ("dropping", ("D", 792.0), ("U", 0.000245, 0.000493)),
    ("preemption", ("D", 0.482), ("SE", 700000.0, 34.9)),
    ("dropping", ("U", 0.0607, 0.0617), ("R", 1.87)),
    ("preemption", ("U", 0.0232, 0.0232), ("E", 8.79e-06)),
    ("dropping", ("R", 480000.0), ("U", 0, 45.5)),
    ("preemption", ("R", 61.0), ("R", 0.0494)),
    ("dropping", ("Erlang", 6, 0.213), ("E", 13200.0)),
    ("preemption", ("Erlang", 2, 7.22), ("D", 0.343)),
    ("dropping", ("H2", (0.31, 0.69), (4.86, 0.0641)), ("D", 0.000328)),
    ("preemption", ("H2", (0.82, 0.18), (3120.0, 0.642)), ("U", 0, 1e+300)),
    ("dropping", ("E", 0.00239), ("H2", (0.21, 0.79), (87400.0, 0.00813))),
    ("preemption", ("E", 267000.0), ("E", 7.72)),
    ("dropping", ("SE", 2930.0, 0), ("D", 1250.0)),
    ("preemption", ("SE", 192.0, 2.53e-06), ("R", 0.0232)),
    ("dropping", ("D", 0.791), ("D", 0.0768)),
    ("preemption", ("D", 0.103), ("Erlang", 6, 481.0)),
    ("dropping", ("U", 0.726, 409.0), ("U", 753000.0, 753000.0)),
    ("preemption", ("U", 300.0, 280000.0), ("SE", 2.5e-308, 16100.0)),
    ("dropping", ("R", 29800.0), ("H2", (0.32, 0.68), (2.06, 201000.0))),
    ("preemption", ("R", 0.00468), ("Erlang", 6, 0.000192)),
    ("dropping", ("Erlang", 4, 0.000624), ("SE", 13.8, 5060.0)),
    ("preemption", ("Erlang", 1, 1.06), ("H2", (0.5, 0.5), (3e+299, 8.46))),
    ("dropping", ("H2", (0.26, 0.74), (0.00158, 0.011)), ("H2", (0.92, 0.08), (4590.0, 2.91))),
    ("preemption", ("H2", (0.69, 0.31), (0.00213, 0.000274)), ("E", 2.72)),
    ("dropping", ("E", 1.0), ("D", 5e-324)),
    ("preemption", ("R", 1e-06), ("E", 1.7976931348623157e308)),
]


def law_name(short) -> str:
    return f"{short[0]}({', '.join(map(str, short[1:]))})"


def law_json(short) -> str:
    kind, *names = LAWS[short[0]]
    return json.dumps({"kind": kind, **dict(zip(names, short[1:]))})


# The rules a usage error may name: check_pair's for a pair of laws and
# check-properties' finite mean for one law.  Any other ValueError would
# reach exit 2 through the same path, so it fails the case.
USAGE_RULES = ("second moment overflows", "second moment underflows",
               "must have a positive mean", "must have a finite mean")


def clean_result(capsys, argv) -> dict | None:
    """The result of ``argv`` run to exit 0 with strict (no NaN or
    Infinity), schema-valid JSON, or None where it ends with a named
    ``AoiError`` payload (exit 1) or a usage error (exit 2) that names one
    of ``USAGE_RULES``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith(f"aoi {argv[0]}: ")
        assert any(rule in err for rule in USAGE_RULES), err
        return None
    payload = json.loads(out, parse_constant=refuse_constant)
    jsonschema.validate(payload, CLI_RESULT_SCHEMA)
    if code == 1:
        assert issubclass(getattr(errors, payload["error"]), errors.AoiError)
        return None
    assert code == 0
    return payload["result"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("discipline,interarrival,service", TRACE_CASES, ids=[
    f"{d}-{law_name(y)}/{law_name(s)}" for d, y, s in TRACE_CASES])
def test_traced_simulate_ends_cleanly(tmp_path, monkeypatch, capsys,
                                      discipline, interarrival, service):
    # At most 30000 events, so no reference trace outgrows about 1.5 MB.
    write = sim._write_trace
    arrays = []

    def spy(fh, *args):
        arrays.append(args)
        write(fh, *args)

    monkeypatch.setattr(sim, "_write_trace", spy)
    trace = tmp_path / "t.csv"
    try:
        code = cli.main([
            "simulate", "--discipline", discipline,
            "--interarrival", law_json(interarrival),
            "--service", law_json(service), "--cycles", "300",
            "--max-events", "30000", "--seed", "1", "--trace", str(trace),
            "--json"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if code == 0:
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            write_trace(fh, *arrays[0])
        assert trace.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    elif code == 1:
        assert issubclass(getattr(errors, json.loads(out)["error"]),
                          errors.AoiError)
        assert trace.read_bytes() == b""  # a run that raises writes no row
    else:
        assert code == 2 and not arrays


# (discipline, interarrival, service), drawn once from
# numpy.random.default_rng(49): disciplines alternate; the interarrival,
# the service or both are mixtures of 2, 3 or 5 exponential phases (2 in
# three draws of five) with one weight of 5e-324, 1e-300, 1e-200, 1e-30,
# 1e-16 or 1e-9 (the other weights at 2 digits, the largest less that
# weight), each rate log-uniform over 1e-6 to 1e6 at 3 digits and, in
# three mixtures of five, one rate instead one of 5e-324, 2.5e-308,
# 1e-300, 3e299, 1e300 and the largest double; a law that is not a
# mixture is E, R, D, U(0, b) or SE over the same range.
MIXTURE_CASES = [
    ('dropping', ('H2', (1.0, 1e-200), (30.5, 1e-300)), ('R', 1.29)),
    ('preemption', ('H2', (5e-324, 1.0), (0.0293, 421.0)), ('H2', (1.0, 1e-30), (3010.0, 3e-06))),
    ('dropping', ('H2', (1.0, 1e-200), (11800.0, 8.93)), ('H2', (0.34, 0.03, 0.14, 0.4899999999999999, 1e-16), (0.00013, 1550.0, 1.82, 39300.0, 3.15))),
    ('preemption', ('H2', (1.0, 1e-200), (0.0342, 1e-300)), ('SE', 119000.0, 0.0965)),
    ('dropping', ('D', 6.24e-05), ('H2', (1e-09, 0.15, 0.38, 0.40999999899999995, 0.06), (1.7976931348623157e+308, 45400.0, 9710.0, 18.8, 0.127))),
    ('preemption', ('H2', (1.0, 1e-30), (0.00257, 3.49e-05)), ('H2', (0.76, 0.24, 1e-200), (0.47, 433000.0, 1e-300))),
    ('dropping', ('H2', (1e-09, 0.26, 0.279999999, 0.24, 0.22), (6.66e-05, 1.88, 0.00157, 1e-300, 2.09e-05)), ('U', 0, 6480.0)),
    ('preemption', ('SE', 0.000356, 829.0), ('H2', (0.29, 0.03, 0.48, 0.2, 5e-324), (1320.0, 5e-324, 0.172, 1.06, 445.0))),
    ('dropping', ('H2', (1.0, 1e-200), (5.45e-06, 1990.0)), ('H2', (5e-324, 1.0), (4010.0, 31.6))),
    ('preemption', ('H2', (1e-30, 1.0), (4900.0, 2.5e-308)), ('U', 0, 0.0244)),
    ('dropping', ('R', 1.15e-06), ('H2', (1.0, 1e-200), (2430.0, 0.000542))),
    ('preemption', ('H2', (1e-200, 1.0), (88100.0, 0.683)), ('H2', (0.31, 0.22, 0.01, 0.46, 5e-324), (39.7, 0.000154, 1.7976931348623157e+308, 4.51e-06, 1.62e-06))),
    ('dropping', ('H2', (0.84, 0.16, 5e-324), (0.336, 0.00091, 617000.0)), ('H2', (0.36999999899999997, 0.32, 0.22, 0.09, 1e-09), (378000.0, 0.113, 3.02, 684.0, 2.5e-308))),
    ('preemption', ('SE', 5080.0, 0.0328), ('H2', (1e-300, 1.0), (0.254, 1e-300))),
    ('dropping', ('H2', (1e-16, 0.26, 0.29, 0.13, 0.3199999999999999), (0.00622, 5e-324, 26.3, 1.39e-05, 23.5)), ('H2', (0.47, 0.5299999999999999, 1e-16), (548.0, 0.000339, 0.57))),
    ('preemption', ('H2', (0.54, 0.46, 1e-300), (4.17e-05, 1.78e-05, 2.71e-05)), ('E', 0.0013)),
    ('dropping', ('E', 0.0566), ('H2', (0.999999999, 1e-09), (95.2, 247000.0))),
    ('preemption', ('H2', (0.38, 0.62, 1e-200), (0.000412, 0.00103, 1e-300)), ('H2', (1e-30, 1.0), (2.79, 76300.0))),
    ('dropping', ('H2', (0.3, 0.47, 0.02, 0.21, 1e-30), (623000.0, 29.5, 488.0, 0.0222, 2.14e-06)), ('U', 0, 0.000153)),
    ('preemption', ('R', 1.24e-05), ('H2', (1e-30, 1.0), (1660.0, 1.7976931348623157e+308))),
    ('dropping', ('H2', (1e-200, 1.0), (808000.0, 210.0)), ('H2', (1e-300, 1.0), (0.00857, 88500.0))),
    ('preemption', ('H2', (0.29, 0.15, 0.28999999999999987, 0.27, 1e-16), (327000.0, 4.12, 1600.0, 1e-300, 3.35)), ('SE', 0.000561, 1470.0)),
    ('dropping', ('D', 597000.0), ('H2', (1e-16, 1.0), (1e-300, 8.89e-05))),
    ('preemption', ('H2', (0.27, 0.32, 0.17, 0.24, 1e-300), (8.8e-05, 810000.0, 0.000201, 2.31, 0.0436)), ('H2', (1.0, 5e-324), (2.43e-06, 14000.0))),
    ('dropping', ('H2', (1e-30, 1.0), (0.75, 129000.0)), ('U', 0, 0.0237)),
    ('preemption', ('SE', 0.000101, 5.15), ('H2', (1e-16, 0.9999999999999999), (48.7, 218.0))),
    ('dropping', ('H2', (1.0, 1e-200), (2.5e-308, 14.5)), ('H2', (1e-30, 1.0), (1e+300, 5.44e-06))),
    ('preemption', ('H2', (1e-300, 1.0), (9.63e-05, 1e-300)), ('E', 0.00764)),
    ('dropping', ('E', 262.0), ('H2', (5e-324, 1.0), (2.5e-308, 1.79e-05))),
    ('preemption', ('H2', (1e-300, 1.0), (6.55e-06, 0.000189)), ('H2', (1.0, 1e-300), (0.0109, 1e+300))),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("discipline,interarrival,service", MIXTURE_CASES, ids=[
    f"{d}-{law_name(y)}/{law_name(s)}" for d, y, s in MIXTURE_CASES])
def test_simulate_on_extreme_mixtures_ends_cleanly(capsys, discipline,
                                                   interarrival, service):
    result = clean_result(capsys, [
        "simulate", "--discipline", discipline,
        "--interarrival", law_json(interarrival),
        "--service", law_json(service), "--cycles", "300",
        "--max-events", "30000", "--seed", "1", "--json"])
    if result is None:
        return
    numbers = [result["value"], result["ci_half_width"],
               *result["cycle_statistics"].values()]
    assert all(math.isfinite(x) for x in numbers), result
    assert result["ci_half_width"] >= 0


# (op, interarrival, service), drawn once from numpy.random.default_rng(50)
# for the lattice's kink search: ops alternate between a dropping exact age
# and a pmf up to k = 5; the gaps are U, SE or D (45%, 45%, 10%), the
# service U, SE or D alike, at a time scale log-uniform over 1e-300 to
# 1e300.  A law's first kink (U's lower end, a quarter of the time 0, then
# its upper end; the SE shift; the D value) is the scale times a
# log-uniform factor over 0.1 to 10, at 3 digits, an SE rate one over such
# a value, a U upper end 1.05 to 10 times the lower.  The service's first
# kink is drawn alike in three cases of ten, lies within two roundings of
# the gaps' kink in four, and 1e-7 to 1e-250 times it (a 0 where that
# underflows at 3 digits) in three.
KINK_CASES = [
    ('exact', ('SE', 6.08e-29, 4.89e+29), ('D', 4.890000000000002e+29)),
    ('kpmf', ('U', 8.84e-60, 2.27e-59), ('D', 8.84e-60)),
    ('exact', ('U', 7.98e+290, 8.65e+290), ('D', 7.979999999999996e+290)),
    ('kpmf', ('U', 0, 1.07e+123), ('SE', 2.7e-124, 6.35e+123)),
    ('exact', ('SE', 7.85e+16, 2.61e-16), ('SE', 5990000000000000.0, 2.6099999999999995e-16)),
    ('kpmf', ('U', 2.23e-194, 6.47e-194), ('D', 0.0)),
    ('exact', ('U', 2.45e+257, 5.91e+257), ('U', 3.69e+143, 2.98e+144)),
    ('kpmf', ('U', 3.13e-52, 1.01e-51), ('SE', 2.08e+51, 2.35e-51)),
    ('exact', ('U', 0, 5.38e+291), ('D', 5.380000000000003e+291)),
    ('kpmf', ('U', 1.96e-47, 1.46e-46), ('SE', 3.5e+46, 1.960000000000001e-47)),
    ('exact', ('U', 1.87e-255, 2.43e-255), ('U', 1.8700000000000005e-255, 4.21e-255)),
    ('kpmf', ('SE', 2.84e+187, 8.06e-189), ('SE', 7.43e+187, 8.25e-188)),
    ('exact', ('U', 0, 2.29e+79), ('U', 0, 1.16e+78)),
    ('kpmf', ('U', 6.45e-200, 1.4e-199), ('U', 1.21e-239, 2.68e-239)),
    ('exact', ('SE', 2.51e-144, 2.56e+143), ('SE', 6.02e-145, 2.5600000000000005e+143)),
    ('kpmf', ('SE', 2.61e+289, 6.11e-291), ('D', 3.84e-291)),
    ('exact', ('U', 0, 1.23e+297), ('SE', 1.66e-297, 1.2300000000000002e+297)),
    ('kpmf', ('U', 5.59e-251, 1.4e-250), ('D', 7.89e-251)),
    ('exact', ('U', 2.4e-200, 7.17e-200), ('U', 2.4000000000000012e-200, 4.43e-200)),
    ('kpmf', ('U', 2.98e-213, 1.02e-212), ('U', 1.63e-223, 1.77e-223)),
    ('exact', ('SE', 7.93e-152, 3.95e+151), ('SE', 2.68e-152, 2.05e+124)),
    ('kpmf', ('SE', 2.03e-264, 8.36e+262), ('U', 8.359999999999998e+262, 1.32e+263)),
    ('exact', ('SE', 7.75e-23, 1.24e+23), ('D', 1.21e-45)),
    ('kpmf', ('SE', 2.36e+176, 7.3e-178), ('D', 7.300000000000003e-178)),
    ('exact', ('U', 1.44e-163, 1.07e-162), ('D', 1.13e-296)),
    ('kpmf', ('SE', 4.06e+95, 5.02e-97), ('U', 5.019999999999999e-97, 4.17e-96)),
    ('exact', ('U', 0, 1.33e+48), ('D', 1.3300000000000004e+48)),
    ('kpmf', ('D', 2.63e+122), ('D', 7.46e+121)),
    ('exact', ('U', 1.4e-82, 5.37e-82), ('SE', 4.98e+80, 7.19e-81)),
    ('kpmf', ('U', 0, 3.65e-62), ('SE', 4.59e+61, 2.49e-185)),
    ('exact', ('SE', 5.62e-267, 9.95e+264), ('D', 9.949999999999996e+264)),
    ('kpmf', ('U', 9.93e+81, 6.33e+82), ('SE', 3.58e-82, 9.929999999999995e+81)),
    ('exact', ('D', 2.94e+217), ('U', 3.52e-21, 2.49e-20)),
    ('kpmf', ('U', 5.65e-69, 8.67e-69), ('U', 5.649999999999999e-69, 3.18e-68)),
    ('exact', ('U', 0, 9.11e-206), ('U', 9.110000000000003e-206, 6.66e-205)),
    ('kpmf', ('SE', 1.12e+262, 2.31e-261), ('U', 2.3099999999999993e-261, 3.01e-261)),
    ('exact', ('U', 4.77e+16, 7.89e+16), ('D', 4.77e+16)),
    ('kpmf', ('D', 4.31e-207), ('SE', 6.34e+207, 0.0)),
    ('exact', ('U', 8.14e+63, 7.51e+64), ('U', 8.140000000000003e+63, 3.56e+64)),
    ('kpmf', ('U', 8.42e+279, 7.09e+280), ('U', 7.01e+86, 8.57e+86)),
    ('exact', ('SE', 1.91e+186, 6.21e-188), ('U', 6.209999999999997e-188, 2.59e-187)),
    ('kpmf', ('SE', 6.09e+280, 3.33e-281), ('D', 0.0)),
    ('exact', ('SE', 3.59e+211, 1.61e-210), ('SE', 3.46e+210, 6.89e-211)),
    ('kpmf', ('D', 6.98e-85), ('SE', 3.65e+82, 6.98e-85)),
    ('exact', ('U', 2.49e+71, 1.33e+72), ('U', 3.94e-142, 3.34e-141)),
    ('kpmf', ('U', 2.94e-234, 5.98e-234), ('D', 2.939999999999999e-234)),
    ('exact', ('SE', 5.64e+95, 3.06e-96), ('U', 3.35e-203, 4.1e-203)),
    ('kpmf', ('SE', 1.43e-45, 2.5e+44), ('D', 2.4999999999999986e+44)),
    ('exact', ('U', 45500000.0, 324000000.0), ('D', 45500000.0)),
    ('kpmf', ('U', 2.44e-79, 3.18e-79), ('SE', 5.12e+77, 2.4400000000000007e-79)),
]


# One law each, drawn once from numpy.random.default_rng(55): the kind
# cycles through LAWS; each case draws a share uniform over 0.1 to 0.5,
# and each parameter is, with that chance, log-uniform over 1e-300 to
# 1e300 (a rate, a quarter of those times, a subnormal log-uniform over
# 5e-324 to 2e-308), else log-uniform over 1e-6 to 1e6, at 3 digits; an
# Erlang shape is uniform over 1 to 8, an H2 weight uniform over 0.01 to
# 0.99 at 2 digits, a U lower end or an SE shift 0 a fifth of the time,
# and a U upper end 1.05 to 10 times a positive lower end.  The last four
# have a mean, or U's a + b, past the float range, the first three
# through a subnormal rate.
CHECK_CASES = [
    ('E', 0.000417),
    ('SE', 1090.0, 6.51e-06),
    ('D', 16.7),
    ('U', 5.54e+282, 3.5e+283),
    ('R', 0.0278),
    ('Erlang', 5, 3.1e-319),
    ('H2', (0.58, 0.42), (1.47e+162, 4.53e-106)),
    ('E', 7.94e-138),
    ('SE', 5.54e-06, 767.0),
    ('D', 546000.0),
    ('U', 2.53e-218, 1.76e-217),
    ('R', 5.74e+76),
    ('Erlang', 5, 3.06e+140),
    ('H2', (0.12, 0.88), (0.649, 9.34e+297)),
    ('E', 0.000214),
    ('SE', 0.0266, 6.04),
    ('D', 387.0),
    ('U', 705.0, 5430.0),
    ('R', 40600.0),
    ('Erlang', 4, 6810.0),
    ('H2', (0.39, 0.61), (0.677, 4.62e+144)),
    ('E', 0.949),
    ('SE', 388.0, 176000.0),
    ('D', 0.00145),
    ('U', 5.55e-130, 7.5e-130),
    ('R', 4.66e+266),
    ('Erlang', 2, 2.69e-06),
    ('H2', (0.2, 0.8), (1.73e-185, 1.3e-318)),
    ('E', 1.89e-193),
    ('SE', 0.234, 1.8e-170),
    ('D', 8.31),
    ('U', 5.33e+81, 4.8e+82),
    ('R', 58.8),
    ('Erlang', 7, 4480.0),
    ('H2', (0.2, 0.8), (2.44e-128, 11.4)),
    ('E', 2.42e+147),
    ('SE', 81.1, 0.105),
    ('D', 924000.0),
    ('U', 13.9, 114.0),
    ('R', 5.61e-149),
    ('Erlang', 7, 0.00012),
    ('H2', (0.65, 0.35), (5.6e-236, 1.22e+246)),
    ('E', 407000.0),
    ('SE', 0.114, 0),
    ('D', 23300.0),
    ('U', 0, 0.000126),
    ('R', 0.00832),
    ('Erlang', 7, 5.11e-251),
    ('H2', (0.45, 0.55), (10.0, 520000.0)),
    ('E', 194000.0),
    ('SE', 2.03e-05, 120000.0),
    ('D', 19300.0),
    ('U', 0, 0.206),
    ('R', 0.00015),
    ('Erlang', 3, 2540.0),
    ('H2', (0.62, 0.38), (8.3e+122, 2.22e-315)),
    ('E', 5870.0),
    ('SE', 0.0229, 0),
    ('D', 5120.0),
    ('U', 657.0, 5150.0),
    ('R', 0.00257),
    ('Erlang', 7, 1.9e-05),
    ('H2', (0.52, 0.48), (1.42e+232, 0.103)),
    ('E', 0.00275),
    ('SE', 0.000715, 675.0),
    ('D', 1.97e-06),
    ('U', 0.0138, 0.0319),
    ('R', 322000.0),
    ('Erlang', 4, 258000.0),
    ('H2', (0.95, 0.05), (3.19e-24, 1.04e-319)),
    ('E', 0.00851),
    ('SE', 3.19e-06, 61.8),
    ('D', 8.09e+234),
    ('U', 241.0, 896.0),
    ('R', 0.00129),
    ('Erlang', 4, 158.0),
    ('H2', (0.68, 0.32), (1.44, 0.0428)),
    ('E', 5.73e-05),
    ('SE', 2.68e-183, 0),
    ('D', 3050.0),
    ('U', 0.00862, 0.0459),
    ('R', 0.00123),
    ('Erlang', 6, 3.17e-187),
    ('H2', (0.75, 0.25), (0.00293, 425.0)),
    ('E', 4.33e-06),
    ('SE', 208.0, 6.68e+296),
    ('D', 0.975),
    ('U', 0, 0.0376),
    ('R', 0.013),
    ('Erlang', 5, 8.97e-153),
    ('H2', (0.19, 0.81), (1.35e-237, 1.75e+26)),
    ('E', 4880.0),
    ('SE', 0.0894, 0),
    ('D', 2.4e+247),
    ('U', 1.73e-05, 4.62e-05),
    ('R', 9.2e+226),
    ('Erlang', 3, 647.0),
    ('H2', (0.14, 0.86), (2.9e+208, 99800.0)),
    ('E', 20600.0),
    ('SE', 0.542, 246000.0),
    ('E', 1e-320),
    ('H2', (0.5, 0.5), (1e-320, 1)),
    ('Erlang', 3, 5e-324),
    ('U', 1e+308, 1.7e+308),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law", CHECK_CASES, ids=map(law_name, CHECK_CASES))
def test_check_properties_ends_cleanly(capsys, law):
    result = clean_result(capsys, ["check-properties", "--dist",
                                   law_json(law), "--json"])
    assert result is None or 0.0 <= result["mean"] < math.inf


# (op, interarrival, service), drawn next from the same generator for the
# SE service's fold past its shift: ops alternate between a pmf up to
# k = 5 and a dropping exact age; the gaps are R(g) half the time, else
# U(0, g) three times in ten and U(g, 1.05 to 10 times g), g log-uniform
# over 1e-150 to 1e150 at 3 digits, and h = g/256 stands for the lattice
# step.  In two cases of four the shift c lies below h times the smallest
# double, so c/h underflows, and the rate is log-uniform from 0.01/c to
# 1e308 or over 1e-6/g to 1e6/g; in the other two the rate is log-uniform
# from 1e308.35/h to 1e308.2, so r h overflows, and c is g times 0.01 to
# 30 (g redrawn over 1e30, or 1e3, to 1e150 where no such c, or r,
# exists).  The last three were found apart: one case of each kind, and
# a finite r h whose multiples leave the float range.
FOLD_CASES = [
    ('kpmf', ('R', 1.42e+40), ('SE', 1.29e+300, 4.72e-292)),
    ('exact', ('R', 7.05e+36), ('SE', 5.69e+303, 4.21e-292)),
    ('kpmf', ('U', 0, 1.76e+74), ('SE', 2.08e+254, 3.52e+73)),
    ('exact', ('U', 0, 1.07e+87), ('SE', 6.9e+250, 1.61e+87)),
    ('kpmf', ('U', 0, 1.45e+44), ('SE', 8.31e+292, 5.37e-293)),
    ('exact', ('R', 8.97e+55), ('SE', 1.26e-56, 1.32e-272)),
    ('kpmf', ('R', 102000000000.0), ('SE', 4.42e+305, 37700000000.0)),
    ('exact', ('U', 0, 2.44e+66), ('SE', 1.27e+308, 1.53e+65)),
    ('kpmf', ('U', 0, 1.64e+125), ('SE', 1.2e+262, 7.2e-216)),
    ('exact', ('U', 5.57e+71, 3.5e+72), ('SE', 1.51e+307, 7.24e-256)),
    ('kpmf', ('R', 1.11e+64), ('SE', 2.58e+269, 2.14e+65)),
    ('exact', ('R', 1.04e+99), ('SE', 4.79e+231, 1.47e+97)),
    ('kpmf', ('U', 0, 3.1e+104), ('SE', 6.22e-100, 1.42e-230)),
    ('exact', ('R', 1e+124), ('SE', 4.51e-129, 6.99e-207)),
    ('kpmf', ('R', 5.69e+135), ('SE', 1.06e+183, 2.95e+136)),
    ('exact', ('U', 3.17e+52, 1.72e+53), ('SE', 5.82e+278, 3.21e+51)),
    ('kpmf', ('R', 1.34e+50), ('SE', 3.66e+295, 1.9e-287)),
    ('exact', ('R', 2.25e+149), ('SE', 1.6e+238, 3.99e-191)),
    ('kpmf', ('U', 0, 1.59e+133), ('SE', 5.03e+182, 8.73e+132)),
    ('exact', ('R', 1.38e+100), ('SE', 1.51e+272, 3.08e+101)),
    ('kpmf', ('U', 1.11e+28, 6.51e+28), ('SE', 4.08e-28, 5.56e-308)),
    ('exact', ('R', 1.33e+127), ('SE', 9.87e-131, 6.74e-213)),
    ('kpmf', ('U', 4.73e+77, 4.3e+78), ('SE', 1.3e+303, 5.85e+75)),
    ('exact', ('U', 8.92e+130, 5.98e+131), ('SE', 1.57e+292, 6.53e+129)),
    ('kpmf', ('U', 3.66e+140, 1.1e+141), ('SE', 2.04e+262, 5.19e-199)),
    ('exact', ('R', 1.95e+43), ('SE', 3.98e+305, 2.31e-298)),
    ('kpmf', ('U', 2.61e+68, 7.83e+68), ('SE', 6.64e+277, 4.73e+67)),
    ('exact', ('R', 1.08e+71), ('SE', 7.78e+254, 1.54e+72)),
    ('kpmf', ('R', 8.08e+131), ('SE', 4.22e-137, 1.2e-195)),
    ('exact', ('R', 1.19e+99), ('SE', 1.1e-96, 1.4e-232)),
    ('kpmf', ('U', 4.86e+145, 2.75e+146), ('SE', 3.06e+270, 1.45e+145)),
    ('exact', ('U', 5.59e+121, 5.09e+122), ('SE', 9.05e+305, 8.58e+119)),
    ('kpmf', ('U', 2.24e+140, 2.08e+141), ('SE', 1.86e+204, 1.16e-202)),
    ('exact', ('U', 3.91e+134, 1.17e+135), ('SE', 3.71e-139, 1.43e-200)),
    ('kpmf', ('R', 4.01e+105), ('SE', 5.7e+251, 6.76e+106)),
    ('exact', ('U', 2.77e+148, 1.87e+149), ('SE', 1.29e+277, 7.1e+146)),
    ('kpmf', ('U', 3.95e+20, 9.46e+20), ('SE', 5.5e-17, 8.28e-320)),
    ('exact', ('U', 6.84e+61, 6.1e+62), ('SE', 4.11e+284, 1.67e-267)),
    ('kpmf', ('R', 5.23e+95), ('SE', 3.36e+305, 1.97e+96)),
    ('exact', ('U', 3.3e+87, 2.02e+88), ('SE', 1.16e+237, 8.25e+88)),
    ('kpmf', ('U', 2.61e+22, 2.09e+23), ('SE', 6.16e-22, 8.33e-307)),
    ('exact', ('U', 7.69e+143, 7.13e+144), ('SE', 7.38e+196, 7.15e-198)),
    ('kpmf', ('R', 3.93e+142), ('SE', 9.06e+219, 3.57e+141)),
    ('exact', ('U', 0, 3.22e+99), ('SE', 3.28e+287, 3.52e+98)),
    ('kpmf', ('U', 1.6e+109, 8.73e+109), ('SE', 3.15e-110, 4.78e-231)),
    ('exact', ('U', 9.41e+88, 2.82e+89), ('SE', 7.82e+296, 6.27e-250)),
    ('kpmf', ('R', 1.67e+76), ('SE', 5.44e+265, 9.82e+75)),
    ('exact', ('U', 6.05e+109, 5.93e+110), ('SE', 2.71e+212, 8.95e+107)),
    ('kpmf', ('R', 1.41e+65), ('SE', 1.04e+305, 3.98e-275)),
    ('exact', ('U', 0, 6.16e+54), ('SE', 4.3e-52, 8.94e-280)),
    ('kpmf', ('U', 64100000000000.0, 357000000000000.0), ('SE', 2.53e+300, 8120000000000.0)),
    ('exact', ('R', 1.39e+134), ('SE', 7.68e+242, 2.47e+132)),
    ('kpmf', ('U', 1.16e+79, 6.76e+79), ('SE', 5.37e-83, 1.01e-248)),
    ('exact', ('R', 5.49e+38), ('SE', 2e+298, 6.1e-301)),
    ('kpmf', ('R', 22400000000.0), ('SE', 7e+300, 388000000.0)),
    ('exact', ('U', 2.39e+123, 2.33e+124), ('SE', 1.16e+258, 4.54e+123)),
    ('kpmf', ('R', 3.04e+102), ('SE', 4.27e-100, 2.81e-228)),
    ('exact', ('U', 0, 8.58e+138), ('SE', 7.71e+288, 1.19e-201)),
    ('kpmf', ('U', 0, 4.44e+67), ('SE', 6.4e+297, 6.25e+68)),
    ('exact', ('U', 0, 1710000000.0), ('SE', 8.52e+303, 149000000.0)),
    ('kpmf', ('R', 4.438134418213695e+50), ('SE', 2.0394891567711206e+295, 2.930546830982486e-280)),
    ('kpmf', ('R', 100000000000.0), ('SE', 1e+300, 10000000000.0)),
    ('kpmf', ('R', 1.0), ('SE', 1e+307, 100.0)),
]


LATTICE_CASES = KINK_CASES + FOLD_CASES


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op,interarrival,service", LATTICE_CASES, ids=[
    f"{op}-{law_name(y)}/{law_name(s)}" for op, y, s in LATTICE_CASES])
def test_lattice_kinks_end_cleanly(capsys, op, interarrival, service):
    laws = ["--interarrival", law_json(interarrival),
            "--service", law_json(service), "--json"]
    result = clean_result(capsys, (
        ["exact", "--discipline", "dropping", *laws] if op == "exact"
        else ["kpmf", "--k-max", "5", *laws]))
    if result is None:
        return
    pairs = ([(result["value"], result["ci_half_width"])] if op == "exact"
             else [(result["tail_mass"], result["tail_mass_ci"]),
                   *((p["probability"], p["ci"]) for p in result["pmf"])])
    assert all(math.isfinite(v) and 0.0 <= hw < math.inf
               for v, hw in pairs), result


def test_se_fold_past_the_last_gap_cell(capsys):
    # The step h puts U's upper end b on the point K = 640 (b/h rounds to
    # 640) while hK lies below b, so the gaps' last cell is the lattice's
    # last and J lies past it: the fold's tail past J is empty.  S >= c > b
    # >= Y, so Pr(K = 1) = 0.
    assert cli.main([
        "kpmf", "--k-max", "5",
        "--interarrival", law_json(("U", 0, 0.0600909090909091)),
        "--service", law_json(("SE", 16.64145234493192, 0.0661)),
        "--json"]) == 0
    pmf = json.loads(capsys.readouterr().out,
                     parse_constant=refuse_constant)["result"]["pmf"]
    assert abs(pmf[0]["probability"]) <= pmf[0]["ci"]
    assert all(math.isfinite(p["probability"]) for p in pmf)


def test_se_fold_reads_the_shift_where_r_h_overflows():
    # S is 1e10 to within 1e-300, so Pr(K = 1) = Pr(Y > 1e10) = e^-0.005
    pmf = k_pmf(Pair(Rayleigh(1e11), ShiftedExponential(1e300, 1e10)), 3).pmf
    value, half_width = pmf[0]
    assert abs(value - math.exp(-0.005)) <= (
        half_width + 4.0 * sys.float_info.epsilon)


# (spec name, --title), drawn once from random.Random(48): 1 to 8 tokens
# each from &, <, >, both quotes, tab, newline, a, b, é, space, "&amp;",
# "]]>", "<!--" and "age"; every fourth case gives no --title, so the
# spec's name is the chart's title.  No carriage return: XML reads one in
# a text node back as a newline.
CHART_TITLES = [
    (">b&amp;b']]>", ''),
    ('&amp;]]>\n>', ']]><!-- '),
    ('a ', '"]]>bb'),
    ('a"&', '\n<'),
    ('a >', ''),
    ('&&amp;b', 'age\t&amp;\t<'),
    ("'' &", ' >\t \n'),
    ('"\n]]>', "&\t<'é"),
    ('éa&amp;<]]>', ''),
    ('">', 'ab \t]]>\n'),
    (']]>&', '\n\nage\t&]]>'),
    ("a\né'>]]>\t", 'aéage&amp;'),
    ('<!-- ageé', ''),
    ('">>', 'age<!-- é]]>'),
    ('ébbage\né\n', 'age'),
    ("b'& <&&&amp;", ' '),
    ('\tage< ]]><!--', ''),
    ('b<!--<!--a<ageaage', 'a>'),
    (']]><<!--age', '<!--"\t&'),
    ("b\n&'é&&amp;", 'age\n \n<&amp;'),
]
SVG = "{http://www.w3.org/2000/svg}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,title", CHART_TITLES,
                         ids=[f"case{i}" for i in range(len(CHART_TITLES))])
def test_charted_sweep_keeps_hostile_text(tmp_path, capsys, name, title):
    spec, chart = tmp_path / "spec.json", tmp_path / "chart.svg"
    spec.write_text(json.dumps({
        "name": name, "discipline": "dropping",
        "interarrival": {"kind": "exponential"}, "swept_param": "rate",
        "grid": [0.5, 1.0, 2.0], "service": {"kind": "exponential", "rate": 1},
        "estimators": ["exact", "gm11"]}), encoding="utf-8")
    argv = ["sweep", "--spec", str(spec), "--csv", str(tmp_path / "s.csv"),
            "--chart", str(chart), "--json"]
    assert cli.main(argv + (["--title", title] if title else [])) == 0
    assert json.loads(capsys.readouterr().out)["result"]["chart"] == str(chart)
    svg = ET.fromstring(chart.read_text(encoding="utf-8"))
    assert svg.find(f"{SVG}text[@font-size='16']").text == (title or name)
