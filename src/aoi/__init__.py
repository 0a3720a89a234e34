"""Average age of information in G/G/1/1 single-server systems.

Three independent evaluation routes for the time-average age under the
dropping and preemption-in-service disciplines: regenerative-cycle simulation
(:mod:`aoi.sim`), exact expressions (:mod:`aoi.analytic`), and closed-form
or semi-analytic upper bounds (:mod:`aoi.bounds`), plus a sweep harness
(:mod:`aoi.experiments`) and a CLI (:mod:`aoi.cli`).
"""

from .analytic import Cycles, Interval, KPmf, Pair, exact_age, k_pmf
from .bounds import (Applicability, BoundKind, BoundReport, corollary_one,
                     mg11_ordering_bound)
from .distributions import (Deterministic, Distribution, Erlang, Exponential,
                            Hyperexponential, MrlVerdict, Rayleigh,
                            ShiftedExponential, Uniform, from_dict)
from .errors import (AoiError, DivergentAge, TruncationNotReached,
                     ZeroSuccessProbability)
from .experiments import (SweepResult, SweepRow, SweepSpec, emit_chart,
                          emit_csv, run_sweep)
from .sim import (AgeEstimate, CycleRecord, CycleRecords, CycleStatistics,
                  Discipline, Moment, SimConfig, cycle_statistics,
                  run_simulation)

__version__ = "0.1.0"
