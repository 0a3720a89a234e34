#!/usr/bin/env python3
"""Preemption in service: the age is not monotone in the arrival rate.

With a shifted-exponential service law, pushing the arrival rate up
eventually preempts almost every service before its mandatory shift
completes, so successful deliveries become rare and the age climbs again.
The sweep shows the dip-then-rise shape; the chart marks the interior
minimum.  The unconditional preemption bound (corollary2) tracks the
exact curve from above.
"""

import argparse
from pathlib import Path

from aoi.distributions import ShiftedExponential
from aoi.experiments import SweepSpec, emit_chart, emit_csv, run_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--cycles", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    spec = SweepSpec(
        name="preemption-overload",
        discipline="preemption",
        interarrival_template={"kind": "exponential"},
        swept_param="rate",
        grid=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0),
        service=ShiftedExponential(rate=1.0, shift=0.5),
        estimators=("simulate", "exact", "corollary2"),
        sim_cycles=args.cycles, base_seed=args.seed)
    result = run_sweep(spec)

    csv_path = args.out_dir / f"{spec.name}.csv"
    svg_path = args.out_dir / f"{spec.name}.svg"
    emit_csv(result, csv_path)
    emit_chart(result, svg_path, title="preemption: age vs arrival rate",
               xlabel="arrival rate")
    print(f"wrote {csv_path} and {svg_path}")
    for row in result.rows:
        value = "divergent" if row.value is None else f"{row.value:10.4f}"
        print(f"  {row.param:>6.3g}  {row.estimator:<10}  {value}")
    exact = [r for r in result.rows if r.estimator == "exact"]
    values = [r.value for r in exact]
    best = exact[values.index(min(values))]
    print(f"minimum exact age {best.value:.4f} at rate {best.param:g}")


if __name__ == "__main__":
    main()
