"""The three workloads: fixed law pairs and CLI sizes, per-op seeds.

Each workload is a *round* of ops, one per entry of its design grid.  A run
repeats the round ``rounds(workload, seconds)`` times, enough to fill
``--seconds`` and to give at least MIN_OPS ops, and shuffles the ops with
the workload seed.  So ``--seconds`` fixes the amount of work, and two runs
with the same ``--seconds`` do the same ops in a different order.
Every op is one ``aoi`` command line; the op with index ``i`` gets the
seed ``SeedSequence((workload seed, i))``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import laws

MC_SAMPLES = 200_000
CYCLES = 10_000
K_MAX = 10
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)

# Seconds one round takes on a quiet 2-vCPU x86-64 VM; sets how many
# rounds fit in ``--seconds``.
ROUND_SECONDS = {"dropping-walk": 3.3, "event-sim": 0.8, "quad-mrl": 10.5}
# Enough ops that at least 10 lie beyond the p90 latency.
MIN_OPS = 100


def E(rate):
    return {"kind": "exponential", "rate": rate}


def SE(rate, shift):
    return {"kind": "shifted_exponential", "rate": rate, "shift": shift}


def D(value):
    return {"kind": "deterministic", "value": value}


def U(lower, upper):
    return {"kind": "uniform", "lower": lower, "upper": upper}


def R(scale):
    return {"kind": "rayleigh", "scale": scale}


def ER(shape, rate):
    return {"kind": "erlang", "shape": shape, "rate": rate}


H2 = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [0.5, 2.0]}

# dropping-walk: shallow to deep walks; G/M pairs (exponential service),
# general service, and deterministic arrivals.
WALK_PAIRS = (
    (E(1), E(2)),            # M/M: closed-form fast path
    (SE(0.25, 0.5), SE(1, 0.1)),
    (E(1), R(1)),
    (E(1), U(0, 1)),
    (U(0, 2), E(1)),         # G/M
    (H2, E(1)),              # G/M
    (ER(2, 2), E(1)),        # G/M
    (D(0.5), U(0, 2)),       # D/G
    (D(0.5), R(1)),          # D/G
    (R(1), SE(2, 0.5)),
    (U(0, 2), ER(2, 2)),
)
# A deep walk (about 26 arrivals per cycle), without corollary1 to bound
# the round's time.
DEEP_PAIR = (U(0, 0.2), R(2))

# event-sim: light load (about one arrival per cycle) to preemption overload.
SIM_PAIRS = (
    (E(0.25), E(1)),
    (E(1), E(1)),
    (U(0, 2), E(1)),
    (D(0.5), U(0, 2)),
    (H2, R(1)),
    (ER(2, 2), SE(2, 0.5)),
    (E(4), SE(1, 0.5)),      # preemption overload
)
# Pairs that also run with --trace in every round.
SIM_TRACED = ((E(1), E(1), "dropping"), (U(0, 2), E(1), "preemption"))

# quad-mrl: the seven laws, each with a fixed service law; gm11 uses E(2).
QUAD_LAWS = (E(1), SE(2, 0.5), D(1), U(0, 2), R(1), ER(2, 2), H2)
QUAD_SERVICES = (R(0.5), E(2), SE(2, 0.2))
GM_SERVICE = E(2)

# The preemption_overload.py sweep, restricted to quadrature estimators.
SWEEP_SPEC = {
    "name": "preemption-overload",
    "discipline": "preemption",
    "interarrival": {"kind": "exponential"},
    "swept_param": "rate",
    "grid": [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0],
    "service": SE(1.0, 0.5),
    "estimators": ["exact", "corollary2"],
    "options": {"mc_samples": 50_000},
}
SWEEP_OPS = 3

WORKLOADS = ("dropping-walk", "event-sim", "quad-mrl")


@dataclass
class Op:
    """One CLI invocation plus what the oracle needs to check it."""

    index: int
    key: str                  # stable across seeds; names the known failures
    argv: list[str]
    check: dict
    outputs: list[Path] = field(default_factory=list)


def _law_args(flag: str, law: dict) -> list[str]:
    return [flag, json.dumps(law)]


def pair_key(y: dict, s: dict) -> str:
    return f"{laws.name(y)}/{laws.name(s)}"


def _walk_round() -> list[tuple[str, list[str], dict]]:
    out = []
    for y, s in (*WALK_PAIRS, DEEP_PAIR):
        pair = _law_args("--interarrival", y) + _law_args("--service", s)
        mc = ["--mc-samples", str(MC_SAMPLES)]
        base = {"y": y, "s": s, "c": 1.0}
        out.append((f"exact-dropping {pair_key(y, s)}",
                    ["exact", "--discipline", "dropping", *pair, *mc],
                    {**base, "kind": "exact-dropping"}))
        if (y, s) != DEEP_PAIR:
            out.append((f"corollary1 {pair_key(y, s)}",
                        ["bound", "--kind", "corollary1", *pair, *mc],
                        {**base, "kind": "corollary1"}))
        out.append((f"kpmf {pair_key(y, s)}",
                    ["kpmf", "--k-max", str(K_MAX), *pair, *mc],
                    {**base, "kind": "kpmf"}))
    return out


def _sim_round() -> list[tuple[str, list[str], dict]]:
    out = []
    runs = [(y, s, d, False) for y, s in SIM_PAIRS for d in ("dropping", "preemption")]
    runs += [(y, s, d, True) for y, s, d in SIM_TRACED]
    for y, s, d, traced in runs:
        argv = ["simulate", "--discipline", d, *_law_args("--interarrival", y),
                *_law_args("--service", s), "--cycles", str(CYCLES)]
        key = f"simulate-{d}{'-traced' if traced else ''} {pair_key(y, s)}"
        out.append((key, argv, {"kind": "simulate", "discipline": d, "y": y,
                                "s": s, "c": 1.0, "traced": traced}))
    return out


def _quad_round() -> list[tuple[str, list[str], dict]]:
    out = []
    for c in SCALES:
        tag = f"c={c:g}"
        for i, y in enumerate(QUAD_LAWS):
            s = QUAD_SERVICES[i % len(QUAD_SERVICES)]
            yc, sc, gmc = (laws.scale(law, c) for law in (y, s, GM_SERVICE))
            pair = _law_args("--interarrival", yc) + _law_args("--service", sc)
            base = {"c": c, "y": y, "s": s}
            out.append((f"check-properties {laws.name(y)} {tag}",
                        ["check-properties", *_law_args("--dist", yc)],
                        {**base, "kind": "check-properties"}))
            out.append((f"exact-preemption {pair_key(y, s)} {tag}",
                        ["exact", "--discipline", "preemption", *pair],
                        {**base, "kind": "exact-preemption"}))
            out.append((f"corollary2 {pair_key(y, s)} {tag}",
                        ["bound", "--kind", "corollary2", *pair],
                        {**base, "kind": "corollary2"}))
            out.append((f"gm11 {pair_key(y, GM_SERVICE)} {tag}",
                        ["bound", "--kind", "gm11", *_law_args("--interarrival", yc),
                         *_law_args("--service", gmc)],
                        {**base, "kind": "gm11", "s": GM_SERVICE}))
            out.append((f"mg11 {pair_key(y, s)} {tag}",
                        ["bound", "--kind", "mg11", *pair],
                        {**base, "kind": "mg11"}))
    for _ in range(SWEEP_OPS):
        out.append(("sweep preemption-overload", ["sweep"],
                    {"kind": "sweep", "c": 1.0}))
    return out


_ROUNDS = {"dropping-walk": _walk_round, "event-sim": _sim_round,
           "quad-mrl": _quad_round}


def rounds(workload: str, seconds: float) -> int:
    size = len(_ROUNDS[workload]())
    return max(math.ceil(MIN_OPS / size), round(seconds / ROUND_SECONDS[workload]))


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def build_ops(workload: str, seed: int, seconds: float, workdir: Path) -> list[Op]:
    """The run's op list; output files go under ``workdir``."""
    specs = _ROUNDS[workload]() * rounds(workload, seconds)
    random.Random(seed).shuffle(specs)
    spec_file = workdir / "sweep-spec.json"
    if workload == "quad-mrl":
        spec_file.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    ops = []
    for i, (key, argv, check) in enumerate(specs):
        argv = [*argv, "--seed", str(op_seed(seed, i))]
        op = Op(index=i, key=key, argv=argv, check=check)
        if check["kind"] == "simulate" and check["traced"]:
            op.outputs = [workdir / f"trace-{i}.csv"]
            op.argv += ["--trace", str(op.outputs[0])]
        elif check["kind"] == "sweep":
            op.outputs = [workdir / f"sweep-{i}.csv", workdir / f"sweep-{i}.svg"]
            op.argv += ["--spec", str(spec_file), "--csv", str(op.outputs[0]),
                        "--chart", str(op.outputs[1])]
        ops.append(op)
    return ops


def sizes() -> dict:
    """Per-op sizes recorded with every result."""
    return {"mc_samples": MC_SAMPLES, "cycles": CYCLES, "k_max": K_MAX,
            "scales": list(SCALES)}
