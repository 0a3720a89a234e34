"""Every subcommand on a law near the float limits paired with E(1).

Each of the seven families, rescaled to 1e-308, 1e-300, 1e300 and 1e308,
is paired with an exponential law of rate 1 on either side and run
through every subcommand variant in-process.  Each call must end in an
exit code (a result, a domain error or a usage error), print no traceback
and no ``NaN`` or ``Infinity`` in its JSON, raise no RuntimeWarning (the
suite turns those into errors), and finish within ``CALL_SECONDS``, so
that a hang fails the test instead of stalling it.
"""

import contextlib
import io
import json
import signal

import pytest

from aoi.cli import main
from aoi.experiments import ESTIMATORS
from test_distributions import ALL_KINDS, RESCALED

EXP1 = {"kind": "exponential", "rate": 1.0}
SCALES = (1e-308, 1e-300, 1e300, 1e308)
CALL_SECONDS = 10.0
VARIANTS = [
    ["simulate", "--discipline", "dropping", "--cycles", "20"],
    ["simulate", "--discipline", "preemption", "--cycles", "20"],
    ["exact", "--discipline", "dropping"],
    ["exact", "--discipline", "preemption"],
    *(["bound", "--kind", tag] for tag in ESTIMATORS if tag != "exact"),
    ["kpmf", "--k-max", "3"],
]


class Hang(Exception):
    """A call outlived ``CALL_SECONDS``."""


def _timed_out(signum, frame):
    raise Hang(f"a call ran past {CALL_SECONDS} s")


def call(argv):
    """(exit code, stdout, stderr) of one in-process ``aoi`` run, which
    must finish within ``CALL_SECONDS``."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json"])
    except SystemExit as exc:  # argparse refuses a law before main's try
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def sweep_argvs(y, s, tmp_path):
    """A one-point sweep per estimator tag and discipline, swapping in
    the interarrival law's last scalar parameter (a hyperexponential has
    none).  One tag per sweep: a usage error, such as mg11's service
    moment out of the float range, ends the whole sweep."""
    scalars = [k for k, v in y.items() if k != "kind" and not isinstance(v, list)]
    if not scalars:
        return []
    runs = [("simulate", d) for d in ("dropping", "preemption")]
    runs += [(tag, d.value) for tag, e in ESTIMATORS.items() for d in e.calls
             if s["kind"] == "exponential" or not e.exponential_service]
    argvs = []
    for i, (tag, discipline) in enumerate(runs):
        spec = {"name": "mixed", "discipline": discipline,
                "interarrival": {k: v for k, v in y.items() if k != scalars[-1]},
                "swept_param": scalars[-1], "grid": [y[scalars[-1]]],
                "service": s, "estimators": [tag], "sim_cycles": 20}
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argvs.append(["sweep", "--spec", str(path), "--csv",
                      str(tmp_path / f"{i}.csv"), "--chart",
                      str(tmp_path / f"{i}.svg")])
    return argvs


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("law", ALL_KINDS, ids=lambda d: d.kind)
def test_mixed_scales_end_cleanly(law, c, tmp_path):
    scaled = RESCALED[law.kind](law, c).to_dict()
    argvs = [["check-properties", "--dist", json.dumps(scaled)]]
    for role, (y, s) in (("y", (scaled, EXP1)), ("s", (EXP1, scaled))):
        pair = ["--interarrival", json.dumps(y), "--service", json.dumps(s)]
        argvs += [[*variant, *pair] for variant in VARIANTS]
        (tmp_path / role).mkdir()
        argvs += sweep_argvs(y, s, tmp_path / role)
    for argv in argvs:
        code, out, err = call(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert "NaN" not in out and "Infinity" not in out, (argv, out)
        if code in (0, 1):
            assert json.loads(out)["command"] == argv[0]
