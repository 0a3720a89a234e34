"""Every record that ``Pair.records`` lists for a pair gives one law of K:
each record's intervals meet every other's."""

import itertools

import numpy as np
import pytest

from aoi.analytic import RECORDS, Interval, Pair
from aoi.distributions import (Deterministic, Erlang, Exponential,
                               Hyperexponential, Rayleigh, ShiftedExponential,
                               Uniform)
from aoi.sim import Discipline
from test_distributions import RESCALED

DROPPING, PREEMPTION = Discipline.DROPPING, Discipline.PREEMPTION
EPS = np.finfo(float).eps
K_MAX = 10

# The README's path table, row by row: the record that serves each pair
# first, and one or two of its pairs.
ROWS = [
    (PREEMPTION, "geometric", [(Uniform(0.0, 2.0), Rayleigh(1.0))]),
    (DROPPING, "one_phase", [
        (Exponential(1.0), Rayleigh(1.0)),
        (Hyperexponential((0.3, 0.7), (1.5, 1.5)), Erlang(3, 3.0))]),
    (DROPPING, "service_blocks", [
        (Uniform(0.0, 2.0), Erlang(2, 2.0)),
        (Deterministic(0.5), Hyperexponential((0.99, 0.01), (5.0, 0.05)))]),
    (DROPPING, "uniformized", [
        (Erlang(2, 2.0), Uniform(0.0, 2.0)),
        (Hyperexponential((0.5, 0.5), (0.5, 2.0)),
         ShiftedExponential(2.0, 0.5))]),
    (DROPPING, "d_arrivals", [
        (Deterministic(0.5), Uniform(0.0, 2.0)),
        (Deterministic(0.7), ShiftedExponential(1.0, 0.1))]),
    (DROPPING, "lattice", [
        (Rayleigh(1.0), ShiftedExponential(2.0, 0.5)),
        (Uniform(0.0, 2.0), Deterministic(1.0))]),
]
CASES = [pytest.param(discipline, first, y, s, c,
                      id=f"{first}-{y.kind}/{s.kind}-c{c:g}")
         for discipline, first, pairs in ROWS for y, s in pairs
         for c in (1e-6, 1.0, 1e6)]


def quantities(record):
    """E[K], E[K^2], the crossing sum, the middle term and Pr(K = k),
    k <= K_MAX, each as one interval."""
    probs, _ = record.pmf(K_MAX)
    return [*record.sums(), *map(Interval, probs.value, probs.half_width)]


@pytest.mark.parametrize("discipline,first,y,s,c", CASES)
def test_every_applicable_record_gives_one_law(discipline, first, y, s, c):
    # The row's record comes first, the rest in the table's order, each
    # under its own name.  Any two records' intervals must overlap; where
    # one of them has half-width 0, as a closed form carries no roundoff,
    # they may miss by 4 eps of the value, or of 1 for a probability, a
    # difference of two tails of K (test_lattice_brackets_the_phase_mix).
    pair = Pair(RESCALED[y.kind](y, c), RESCALED[s.kind](s, c))
    records = pair.records(discipline)
    assert list(records) == [n for n in RECORDS[discipline] if n in records]
    assert all(record.name == name for name, record in records.items())
    assert next(iter(records)) == pair.cycles(discipline).name == first
    found = {name: quantities(record) for name, record in records.items()}
    for (a, got), (b, want) in itertools.combinations(found.items(), 2):
        for i, (u, v) in enumerate(zip(got, want)):
            scale = max(abs(u.value), abs(v.value), 1.0 if i >= 4 else 0.0)
            slack = (4.0 * EPS * scale
                     if 0.0 in (u.half_width, v.half_width) else 0.0)
            assert abs(u.value - v.value) <= (
                u.half_width + v.half_width + slack), (a, b, i, u, v)
