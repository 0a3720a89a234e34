"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see them)."""

import hashlib
import math

import numpy as np
import pytest

from aoi.analytic import Pair, exact_age, k_pmf
from aoi.bounds import corollary_one, mg11_ordering_bound
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, MrlVerdict, Rayleigh,
                               ShiftedExponential, Uniform)
from aoi.experiments import ESTIMATORS, SweepSpec, emit_csv, run_sweep
from aoi.sim import Z95, Discipline, SimConfig, cycle_statistics, run_simulation
from walk_oracle import dropping_walk_moments

RATE_GRID = (0.5, 1.0, 2.0)
DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {num} ({desc}): {status}")
    assert not failures, f"criterion {num} ({desc}): " + " | ".join(failures)


def mm_dropping(lam, mu):
    return 1.0 / lam + 2.0 / mu - 1.0 / (lam + mu)


def test_criterion_1_mm_dropping_cross_check():
    failures = []
    for i, lam in enumerate(RATE_GRID):
        for j, mu in enumerate(RATE_GRID):
            closed = mm_dropping(lam, mu)
            est, _ = run_simulation(SimConfig(
                Exponential(lam), Exponential(mu), "dropping",
                target_cycles=100_000, seed=1000 + 10 * i + j))
            rel = abs(est.value - closed) / closed
            if rel > 0.02:
                failures.append(f"sim ({lam},{mu}): rel err {rel:.4f} > 2%")
            fast = exact_age(Pair(Exponential(lam), Exponential(mu)), DROPPING)
            if abs(fast.value - closed) > 1e-12 * closed:
                failures.append(f"fast path ({lam},{mu}) != closed form")
            y, s = Exponential(lam), Exponential(mu)
            wm = dropping_walk_moments(y, s, samples=1_000_000,
                                       seed=2000 + 10 * i + j)
            generic = (y.second_moment() / (2.0 * y.mean())
                       + wm.ratio().value + s.mean())
            rel = abs(generic - closed) / closed
            if rel > 0.005:
                failures.append(f"exact ({lam},{mu}): rel err {rel:.4f} > 0.5%")
    _report(1, "M/M/1/1 dropping cross-check", failures)


def test_criterion_2_mm_preemption_cross_check():
    failures = []
    for i, lam in enumerate(RATE_GRID):
        for j, mu in enumerate(RATE_GRID):
            closed = 1.0 / lam + 1.0 / mu
            exact = exact_age(Pair(Exponential(lam), Exponential(mu)), PREEMPTION)
            if abs(exact.value - closed) > 1e-8 * closed:
                failures.append(
                    f"exact ({lam},{mu}): {exact.value} != {closed}")
            est, _ = run_simulation(SimConfig(
                Exponential(lam), Exponential(mu), "preemption",
                target_cycles=100_000, seed=3000 + 10 * i + j))
            rel = abs(est.value - closed) / closed
            if rel > 0.02:
                failures.append(f"sim ({lam},{mu}): rel err {rel:.4f} > 2%")
    _report(2, "M/M/1/1 preemption cross-check (corrected denominator)",
            failures)


def test_criterion_3_bound_domination_suite():
    failures = []

    # Dropping: three families x five points, exponential service.
    service = Exponential(1.0)
    nbue_service = service.mrl_class().nbue
    dropping_families = {
        "shifted_exponential": [ShiftedExponential(r, 0.5)
                                for r in (0.4, 0.8, 1.2, 1.6, 2.0)],
        "erlang": [Erlang(2, r) for r in (0.5, 1.0, 1.5, 2.0, 3.0)],
        "uniform": [Uniform(0.0, b) for b in (0.8, 1.6, 2.4, 3.2, 4.0)],
    }
    for family, laws in dropping_families.items():
        for y in laws:
            exact = exact_age(Pair(y, service), DROPPING)
            slack = 3.0 * exact.ci_half_width
            for tag in ("corollary1", "gm11"):
                bound = ESTIMATORS[tag].calls[DROPPING](Pair(y, service))
                if bound.value < exact.value - slack:
                    failures.append(f"{tag} < exact for {y.describe()}")
            verdict = y.mrl_class()
            if verdict in (MrlVerdict.DMRL, MrlVerdict.CONSTANT) and nbue_service:
                mg = mg11_ordering_bound(Pair(y, service)).value
                if mg < exact.value - slack:
                    failures.append(f"mg11 < exact for {y.describe()}")

    # Preemption: three families x five points, corollary 2 is the
    # applicable bound.
    p_service = ShiftedExponential(1.0, 0.1)
    preemption_families = {
        "shifted_exponential": [ShiftedExponential(r, 0.3)
                                for r in (0.4, 0.8, 1.2, 1.6, 2.0)],
        "uniform": [Uniform(0.1, b) for b in (0.9, 1.7, 2.5, 3.3, 4.1)],
        "rayleigh": [Rayleigh(s) for s in (0.5, 0.8, 1.1, 1.4, 1.7)],
    }
    for family, laws in preemption_families.items():
        for y in laws:
            exact = exact_age(Pair(y, p_service), PREEMPTION)
            slack = 3.0 * exact.ci_half_width + 1e-9
            c2 = corollary_one(Pair(y, p_service), PREEMPTION).value
            if c2 < exact.value - slack:
                failures.append(f"corollary2 < exact for {y.describe()}")

    # Tightness: corollary 1 equals exact for deterministic interarrivals.
    # Exponential service takes the geometric record, whose ci is roundoff
    # at most here, so the slack is relative rather than a Monte Carlo
    # interval.
    for v in (0.5, 1.0, 2.0):
        y = Deterministic(v)
        exact = exact_age(Pair(y, service), DROPPING)
        c1 = corollary_one(Pair(y, service), DROPPING).value
        slack = 3.0 * exact.ci_half_width + 1e-8 * exact.value
        if abs(c1 - exact.value) > slack:
            failures.append(f"corollary1 not tight at Deterministic({v}): "
                            f"{c1} vs {exact.value}")

    # Tightness: corollary 2 equals exact for Deterministic(2)/Deterministic(1).
    exact = exact_age(Pair(Deterministic(2.0), Deterministic(1.0)), PREEMPTION)
    c2 = corollary_one(Pair(Deterministic(2.0), Deterministic(1.0)), PREEMPTION).value
    if abs(c2 - exact.value) > 1e-9:
        failures.append("corollary2 not tight at Deterministic(2)/Deterministic(1)")

    _report(3, "bound domination suite", failures)


def test_criterion_4_ordering_bound_and_imrl_reversal():
    failures = []
    service = ShiftedExponential(1.0, 0.1)
    if not service.mrl_class().nbue:
        failures.append("service not NBUE")

    # DMRL interarrivals: the mean-matched exponential-arrival age is an
    # upper bound along the shift sweep (zero shift is exactly exponential,
    # where the classifier reports a constant MRL).
    for c in (0.0, 0.5, 1.0, 2.0):
        y = ShiftedExponential(1.0, c)
        verdict = y.mrl_class()
        expected = MrlVerdict.CONSTANT if c == 0.0 else MrlVerdict.DMRL
        if verdict is not expected:
            failures.append(f"shift {c}: verdict {verdict}")
        exact = exact_age(Pair(y, service), DROPPING)
        bound = mg11_ordering_bound(Pair(y, service)).value
        if exact.value > bound + 3.0 * exact.ci_half_width:
            failures.append(f"shift {c}: exact {exact.value:.4f} above "
                            f"bound {bound:.4f}")

    # IMRL interarrivals: the same expression becomes a lower bound with
    # each NBUE service family.  The H2 service is not NBUE, and there
    # the label says the premise is not met.
    services = (service, Exponential(1.0), Deterministic(1.0),
                Uniform(0.0, 2.0), Rayleigh(0.8), Erlang(2, 2.0),
                Hyperexponential((0.99, 0.01), (5.0, 0.05)))
    for s in (0.5, 1.0, 1.5, 2.0):
        y = Hyperexponential((0.5, 0.5), (0.5 * s, 2.0 * s))
        verdict = y.mrl_class()
        if verdict is not MrlVerdict.IMRL:
            failures.append(f"scale {s}: verdict {verdict}")
        for x in services:
            bound = mg11_ordering_bound(Pair(y, x))
            want = ("ReversedUnderIMRL" if x.mrl_class().nbue
                    else "PremiseNotMet")
            if bound.applicability.value != want:
                failures.append(f"scale {s}, {x.describe()}: wrong "
                                "applicability label")
            if want == "PremiseNotMet":
                continue
            exact = exact_age(Pair(y, x), DROPPING)
            if exact.value < bound.value - 3.0 * exact.ci_half_width:
                failures.append(f"scale {s}, {x.describe()}: exact "
                                f"{exact.value:.4f} below reversed bound "
                                f"{bound.value:.4f}")
    _report(4, "mean-matched ordering bound: DMRL direction and IMRL reversal",
            failures)


def test_criterion_5_preemption_non_monotonicity():
    failures = []
    spec = SweepSpec(
        name="preemption-overload", discipline="preemption",
        interarrival_template={"kind": "exponential"},
        swept_param="rate", grid=(0.25, 0.5, 1.0, 2.0, 3.0, 4.0),
        service=ShiftedExponential(1.0, 0.5),
        estimators=("simulate", "exact"),
        sim_cycles=20_000, base_seed=55)
    result = run_sweep(spec)
    sim = result.column("simulate")
    if any(r.value is None for r in sim):
        failures.append("divergent simulation point")
    else:
        # The age must rise again at the high-rate end: some pair
        # lam1 < lam2 separated by 3 CIs in the increasing direction.
        rising = [(a, b) for i, a in enumerate(sim) for b in sim[i + 1:]
                  if a.value + 3 * a.ci < b.value - 3 * b.ci]
        if not rising:
            failures.append("no 3-CI separated increase at the high-rate end")
        # And the front of the curve must fall first (non-monotone dip).
        falling = [(a, b) for i, a in enumerate(sim) for b in sim[i + 1:]
                   if a.value - 3 * a.ci > b.value + 3 * b.ci]
        if not falling:
            failures.append("no initial decrease")
        exact = result.column("exact")
        values = [r.value for r in exact]
        i_min = values.index(min(values))
        if not (0 < i_min < len(values) - 1):
            failures.append("exact column has no interior minimum")
    _report(5, "preemption age dips then rises in the arrival rate", failures)


# ---------------------------------------------------------------------
# Randomized suite shared by criteria 6 and 7.

def _scaled_dist(kind, mean):
    if kind == "exponential":
        return Exponential(1.0 / mean)
    if kind == "shifted_exponential":
        return ShiftedExponential(1.5 / mean, mean / 3.0)
    if kind == "deterministic":
        return Deterministic(mean)
    if kind == "uniform":
        return Uniform(0.5 * mean, 1.5 * mean)
    if kind == "rayleigh":
        return Rayleigh(mean / math.sqrt(math.pi / 2.0))
    if kind == "erlang":
        return Erlang(2, 2.0 / mean)
    return Hyperexponential((0.5, 0.5), (0.625 / mean, 2.5 / mean))


_KIND_NAMES = ("exponential", "shifted_exponential", "deterministic",
               "uniform", "rayleigh", "erlang", "hyperexponential")


@pytest.fixture(scope="module")
def randomized_runs():
    rng = np.random.default_rng(20260809)
    runs = []
    for _ in range(200):
        y = _scaled_dist(_KIND_NAMES[rng.integers(len(_KIND_NAMES))],
                         float(rng.uniform(0.6, 2.0)))
        s = _scaled_dist(_KIND_NAMES[rng.integers(len(_KIND_NAMES))],
                         float(rng.uniform(0.15, 0.45)))
        discipline = "dropping" if rng.random() < 0.5 else "preemption"
        config = SimConfig(y, s, discipline, target_cycles=1500,
                           seed=int(rng.integers(0, 2**63)))
        _, records = run_simulation(config)
        runs.append((config, cycle_statistics(records)))
    return runs


def test_criterion_6_wald_identity_property(randomized_runs):
    failures = []
    misses = 0
    for config, stats in randomized_runs:
        ey = config.interarrival.mean()
        gap = abs(stats.g_mean.value - stats.k_mean.value * ey)
        combined = math.hypot(stats.g_mean.stderr, ey * stats.k_mean.stderr)
        # The 1e-9 floor covers degenerate (deterministic) cases whose
        # standard errors collapse to float rounding noise.
        if gap > 3.0 * combined + 1e-9:
            misses += 1
    if misses > 5:
        failures.append(f"{misses}/200 runs break the identity (allowed 5)")
    _report(6, f"Wald identity E[G] = E[K] E[Y] ({200 - misses}/200 within "
               "3 combined SE)", failures)


def test_criterion_7_geometric_k_under_preemption(randomized_runs):
    failures = []
    preemptive = [(c, s) for c, s in randomized_runs
                  if c.discipline.value == "preemption"]
    misses = 0
    for config, stats in preemptive:
        p = Pair(config.interarrival, config.service).p.value
        gap = abs(stats.k_mean.value * p - 1.0)
        # z-test against the geometric null: Var(K) = (1-p)/p^2.  The
        # empirical CI collapses when p ~ 1 and no multi-arrival cycle
        # happens to be observed, so the null variance is the sound scale.
        n = config.target_cycles
        se_null = math.sqrt(max(1.0 - p, 0.0) / n)
        if gap > 3.0 * max(se_null, stats.k_mean.stderr * p) + 1e-9:
            misses += 1
    allowed = max(2, round(0.025 * len(preemptive)))
    if misses > allowed:
        failures.append(f"{misses}/{len(preemptive)} preemption runs break "
                        f"E[K] p = 1 (allowed {allowed})")

    # Dropping M/M case: the cycle count pmf is geometric(1/2).
    res = k_pmf(Pair(Exponential(1.0), Exponential(1.0)), 25)
    for k, m in enumerate(res.pmf[:10], start=1):
        if abs(m.value - 0.5**k) > max(4.0 * m.half_width / Z95, 1e-4):
            failures.append(f"pmf({k}) = {m.value:.5f} vs {0.5**k:.5f}")
    _report(7, f"geometric cycle count under preemption "
               f"({len(preemptive) - misses}/{len(preemptive)} runs)", failures)


def test_criterion_8_byte_identical_outputs(tmp_path):
    failures = []
    spec = SweepSpec(
        name="determinism", discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "shift": 0.5},
        swept_param="rate", grid=(0.5, 1.0, 2.0),
        service=Exponential(1.0),
        estimators=("simulate", "exact", "corollary1", "gm11", "mg11"),
        sim_cycles=2000, base_seed=123)
    digests = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        emit_csv(run_sweep(spec), path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    if digests[0] != digests[1]:
        failures.append("CSV digests differ across identical runs")
    config = SimConfig(Exponential(1.0), Exponential(1.0), "preemption",
                       target_cycles=5000, seed=77)
    if run_simulation(config) != run_simulation(config):
        failures.append("simulation is not bit-reproducible")
    _report(8, "fixed seeds give byte-identical outputs "
               f"(sha256 {digests[0][:12]}...)", failures)
