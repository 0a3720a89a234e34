#!/usr/bin/env python3
"""Dropping discipline with hyperexponential (IMRL) interarrivals.

Mixtures of exponentials have increasing mean residual life.  Sweeping a
common scale on the two phase rates shows the ordering flip: the general
arrivals-count bound (corollary1) stays above the exact age, while the
mean-matched exponential-arrival value (mg11) drops below it and acts as a
lower bound.  The applicability column records the flip
(ReversedUnderIMRL), driven by the MRL classifier at every point.

The swept scale multiplies both phase rates, so it cannot ride the scalar
template sweep; the rows are assembled directly with the same per-point
seed policy.  The hyperexponential family here (equal weights, rates in
ratio 1:4) is a documented choice; any IMRL law shows the same reversal.
"""

import argparse
from pathlib import Path

import numpy as np

from aoi import analytic, bounds
from aoi.distributions import Exponential, Hyperexponential, classify_mrl
from aoi.experiments import SweepResult, SweepRow, emit_chart, emit_csv
from aoi.sim import SimConfig, run_simulation

SCALES = (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0)
SERVICE = Exponential(1.0)


def sweep_rows(args):
    rows = []
    for index, scale in enumerate(SCALES):
        y = Hyperexponential((0.5, 0.5), (0.5 * scale, 2.0 * scale))
        ss = np.random.SeedSequence((args.seed, index))
        sim_seed = int(ss.generate_state(1, dtype=np.uint64)[0])

        est, _ = run_simulation(SimConfig(y, SERVICE, "dropping",
                                          args.cycles, seed=sim_seed))
        rows.append(SweepRow(scale, "simulate", est.value, est.ci_half_width))

        exact = analytic.exact_age_dropping(y, SERVICE)
        rows.append(SweepRow(scale, "exact", exact.value, exact.ci_half_width))

        km = analytic.moments_of_K_dropping(y, SERVICE)
        c1 = bounds.ub_dropping_general(y, SERVICE, km)
        rows.append(SweepRow(scale, "corollary1", c1.value, 0.0,
                             c1.applicability.value))

        verdict = classify_mrl(y).verdict
        mg = bounds.mg11_ordering_bound(y.mean(), SERVICE, verdict)
        rows.append(SweepRow(scale, "mg11", mg.value, 0.0,
                             mg.applicability.value))
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
