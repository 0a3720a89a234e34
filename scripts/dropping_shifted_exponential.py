#!/usr/bin/env python3
"""Dropping discipline with shifted-exponential interarrivals and service.

Two sweeps: the interarrival rate at a fixed shift, and the interarrival
shift at a fixed rate.  Simulation, the exact estimator, the general
arrivals-count bound (corollary1) and the mean-matched ordering bound
(mg11) share each grid.  The age falls as the rate grows and rises with
the shift; both bounds sit above the exact curve and the general bound
tightens as the shift pushes the gaps toward a deterministic value.

Grids are this script's defaults, chosen to show the shapes at desk scale.
"""

import argparse
from pathlib import Path

from aoi.distributions import ShiftedExponential
from aoi.experiments import SweepSpec, emit_chart, emit_csv, run_sweep

SERVICE = ShiftedExponential(rate=1.0, shift=0.1)


def build_specs(args):
    rate_sweep = SweepSpec(
        name="dropping-rate-sweep",
        discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "shift": 0.5},
        swept_param="rate",
        grid=(0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0),
        service=SERVICE,
        estimators=("simulate", "exact", "corollary1", "mg11"),
        sim_cycles=args.cycles, base_seed=args.seed)
    shift_sweep = SweepSpec(
        name="dropping-shift-sweep",
        discipline="dropping",
        interarrival_template={"kind": "shifted_exponential", "rate": 1.0},
        swept_param="shift",
        grid=(0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
        service=SERVICE,
        estimators=("simulate", "exact", "corollary1", "mg11"),
        sim_cycles=args.cycles, base_seed=args.seed + 1)
    return [(rate_sweep, "interarrival rate"), (shift_sweep, "interarrival shift")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--cycles", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for spec, xlabel in build_specs(args):
        result = run_sweep(spec)
        csv_path = args.out_dir / f"{spec.name}.csv"
        svg_path = args.out_dir / f"{spec.name}.svg"
        emit_csv(result, csv_path)
        emit_chart(result, svg_path, title=spec.name, xlabel=xlabel)
        print(f"{spec.name}: wrote {csv_path} and {svg_path}")
        for row in result.rows:
            value = "divergent" if row.value is None else f"{row.value:10.4f}"
            print(f"  {row.param:>7.3g}  {row.estimator:<10}  {value}")


if __name__ == "__main__":
    main()
