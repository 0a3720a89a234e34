"""The benchmark's own description of the seven laws, independent of ``aoi``.

A law is the JSON object the CLI accepts (``{"kind": "uniform", ...}``).
Everything here is written from the textbook definitions so that the
oracle never checks ``aoi`` against itself.
"""

from __future__ import annotations

import math

import numpy as np

# Known mean-residual-life class and NBUE property of each kind.
MRL_CLASS = {
    "exponential": "ConstantMRL",
    "shifted_exponential": "DMRL",
    "deterministic": "DMRL",
    "uniform": "DMRL",
    "rayleigh": "DMRL",
    "erlang": "DMRL",
    "hyperexponential": "IMRL",
}
NBUE = {kind: cls != "IMRL" for kind, cls in MRL_CLASS.items()}

_TIME_PARAMS = {"shift", "value", "lower", "upper", "scale"}
_RATE_PARAMS = {"rate", "rates"}


def scale(law: dict, c: float) -> dict:
    """The law of ``c * X``: time parameters times c, rates over c."""
    out = {}
    for k, v in law.items():
        if k in _TIME_PARAMS:
            out[k] = v * c
        elif k in _RATE_PARAMS:
            out[k] = [r / c for r in v] if isinstance(v, list) else v / c
        else:
            out[k] = v
    return out


def name(law: dict) -> str:
    """Short stable label, e.g. ``uniform(0,2)``."""
    params = [v for k, v in law.items() if k != "kind"]
    return f"{law['kind']}({','.join(str(p) for p in params)})".replace(" ", "")


def mean(law: dict) -> float:
    k = law["kind"]
    if k == "exponential":
        return 1.0 / law["rate"]
    if k == "shifted_exponential":
        return law["shift"] + 1.0 / law["rate"]
    if k == "deterministic":
        return float(law["value"])
    if k == "uniform":
        return 0.5 * (law["lower"] + law["upper"])
    if k == "rayleigh":
        return law["scale"] * math.sqrt(math.pi / 2.0)
    if k == "erlang":
        return law["shape"] / law["rate"]
    if k == "hyperexponential":
        return sum(w / r for w, r in zip(law["weights"], law["rates"]))
    raise ValueError(k)


def second_moment(law: dict) -> float:
    k = law["kind"]
    if k == "exponential":
        return 2.0 / law["rate"] ** 2
    if k == "shifted_exponential":
        return 1.0 / law["rate"] ** 2 + mean(law) ** 2
    if k == "deterministic":
        return float(law["value"]) ** 2
    if k == "uniform":
        a, b = law["lower"], law["upper"]
        return (a * a + a * b + b * b) / 3.0
    if k == "rayleigh":
        return 2.0 * law["scale"] ** 2
    if k == "erlang":
        n, r = law["shape"], law["rate"]
        return n * (n + 1) / r**2
    if k == "hyperexponential":
        return sum(2.0 * w / r**2 for w, r in zip(law["weights"], law["rates"]))
    raise ValueError(k)


def ccdf(law: dict, x):
    """Pr(X > x), strict, elementwise over an array."""
    x = np.asarray(x, dtype=float)
    k = law["kind"]
    if k == "exponential":
        return np.exp(-law["rate"] * np.maximum(x, 0.0))
    if k == "shifted_exponential":
        return np.exp(-law["rate"] * np.maximum(x - law["shift"], 0.0))
    if k == "deterministic":
        return (x < law["value"]).astype(float)
    if k == "uniform":
        a, b = law["lower"], law["upper"]
        return np.clip((b - x) / (b - a), 0.0, 1.0)
    if k == "rayleigh":
        x = np.maximum(x, 0.0)
        return np.exp(-x * x / (2.0 * law["scale"] ** 2))
    if k == "erlang":
        n, r = law["shape"], law["rate"]
        rx = r * np.maximum(x, 0.0)
        term = np.ones_like(rx)
        total = np.ones_like(rx)
        for i in range(1, n):
            term = term * rx / i
            total = total + term
        return np.exp(-rx) * total
    if k == "hyperexponential":
        x = np.maximum(x, 0.0)
        return sum(w * np.exp(-r * x) for w, r in zip(law["weights"], law["rates"]))
    raise ValueError(k)


def laplace(law: dict, s: float) -> float:
    """E[exp(-s X)]."""
    k = law["kind"]
    if k == "exponential":
        r = law["rate"]
        return r / (r + s)
    if k == "shifted_exponential":
        r = law["rate"]
        return math.exp(-s * law["shift"]) * r / (r + s)
    if k == "deterministic":
        return math.exp(-s * law["value"])
    if k == "uniform":
        a, b = law["lower"], law["upper"]
        return (math.exp(-s * a) - math.exp(-s * b)) / (s * (b - a))
    if k == "rayleigh":
        sig = law["scale"]
        g = math.exp((s * sig) ** 2 / 2.0) * math.erfc(s * sig / math.sqrt(2.0))
        return 1.0 - s * sig * math.sqrt(math.pi / 2.0) * g
    if k == "erlang":
        r = law["rate"]
        return (r / (r + s)) ** law["shape"]
    if k == "hyperexponential":
        return sum(w * r / (r + s) for w, r in zip(law["weights"], law["rates"]))
    raise ValueError(k)


def laplace_neg_derivative(law: dict, s: float) -> float:
    """-d/ds E[exp(-s X)] = E[X exp(-s X)]."""
    k = law["kind"]
    if k == "exponential":
        r = law["rate"]
        return r / (r + s) ** 2
    if k == "shifted_exponential":
        r, d = law["rate"], law["shift"]
        return math.exp(-s * d) * (d * r / (r + s) + r / (r + s) ** 2)
    if k == "deterministic":
        v = law["value"]
        return v * math.exp(-s * v)
    if k == "uniform":
        a, b = law["lower"], law["upper"]
        return (((a / s + 1.0 / s**2) * math.exp(-s * a)
                 - (b / s + 1.0 / s**2) * math.exp(-s * b)) / (b - a))
    if k == "rayleigh":
        sig = law["scale"]
        g = math.exp((s * sig) ** 2 / 2.0) * math.erfc(s * sig / math.sqrt(2.0))
        return sig * math.sqrt(math.pi / 2.0) * g * (1.0 + (s * sig) ** 2) - s * sig**2
    if k == "erlang":
        n, r = law["shape"], law["rate"]
        return n * r**n / (r + s) ** (n + 1)
    if k == "hyperexponential":
        return sum(w * r / (r + s) ** 2 for w, r in zip(law["weights"], law["rates"]))
    raise ValueError(k)


def sample(law: dict, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws, by inversion or textbook constructions."""
    k = law["kind"]
    if k == "exponential":
        return rng.standard_exponential(n) / law["rate"]
    if k == "shifted_exponential":
        return law["shift"] + rng.standard_exponential(n) / law["rate"]
    if k == "deterministic":
        return np.full(n, float(law["value"]))
    if k == "uniform":
        a, b = law["lower"], law["upper"]
        return a + (b - a) * rng.random(n)
    if k == "rayleigh":
        return law["scale"] * np.sqrt(2.0 * rng.standard_exponential(n))
    if k == "erlang":
        out = np.zeros(n)
        for _ in range(law["shape"]):
            out += rng.standard_exponential(n)
        return out / law["rate"]
    if k == "hyperexponential":
        rates = np.asarray(law["rates"])
        phase = np.searchsorted(np.cumsum(law["weights"]), rng.random(n) * sum(law["weights"]))
        phase = np.minimum(phase, len(rates) - 1)
        return rng.standard_exponential(n) / rates[phase]
    raise ValueError(k)
