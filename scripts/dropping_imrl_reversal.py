#!/usr/bin/env python3
"""Dropping discipline with hyperexponential (IMRL) interarrivals.

Mixtures of exponentials have increasing mean residual life.  Sweeping a
common scale on the two phase rates shows the ordering flip: the general
arrivals-count bound (corollary1) stays above the exact age, while the
mean-matched exponential-arrival value (mg11) drops below it and acts as a
lower bound.  The applicability column records the flip
(ReversedUnderIMRL), read at every point from the two laws' closed-form
ageing classes: IMRL arrivals and exponential service, which is NBUE, as
the reversal needs.

The swept scale multiplies both phase rates, so it cannot ride the scalar
template sweep; each point goes through the sweep's per-point evaluation
with the same seed rule.  The hyperexponential family here (equal weights,
rates in ratio 1:4) is a documented choice; any IMRL law shows the same
reversal.
"""

import argparse
from pathlib import Path

from aoi.distributions import Exponential, Hyperexponential
from aoi.experiments import (SweepResult, emit_chart, emit_csv,
                             evaluate_point, point_seed)
from aoi.sim import Discipline

SCALES = (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0)
SERVICE = Exponential(1.0)
ESTIMATORS = ("simulate", "exact", "corollary1", "mg11")


def sweep_rows(args):
    rows = []
    for index, scale in enumerate(SCALES):
        y = Hyperexponential((0.5, 0.5), (0.5 * scale, 2.0 * scale))
        rows += evaluate_point(Discipline.DROPPING, y, SERVICE, ESTIMATORS, scale,
                               args.cycles, point_seed(args.seed, index))
    return SweepResult(rows=tuple(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--cycles", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    result = sweep_rows(args)
    csv_path = args.out_dir / "dropping-imrl-reversal.csv"
    svg_path = args.out_dir / "dropping-imrl-reversal.svg"
    emit_csv(result, csv_path)
    emit_chart(result, svg_path, title="IMRL interarrivals: ordering reversal",
               xlabel="phase-rate scale")
    print(f"wrote {csv_path} and {svg_path}")
    for row in result.rows:
        value = "divergent" if row.value is None else f"{row.value:10.4f}"
        print(f"  {row.param:>6.3g}  {row.estimator:<10}  {value}  "
              f"{row.applicability}")


if __name__ == "__main__":
    main()
