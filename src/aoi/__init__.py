"""Average age of information in G/G/1/1 single-server systems.

Three independent evaluation routes for the time-average age under the
dropping and preemption-in-service disciplines: regenerative-cycle simulation
(:mod:`aoi.sim`), exact expressions (:mod:`aoi.analytic`), and closed-form
or semi-analytic upper bounds (:mod:`aoi.bounds`), plus a sweep harness
(:mod:`aoi.experiments`) and a CLI (:mod:`aoi.cli`).
"""

from .analytic import (DEFAULT_OPTIONS, EstimatorOptions, KPmf,
                       conditional_mean_service, exact_age_dropping,
                       exact_age_preemption, k_pmf, moments_of_K_dropping,
                       success_probability)
from .bounds import (Applicability, BoundKind, BoundReport, mg11_ordering_bound,
                     ub_dropping_general, ub_dropping_gm, ub_preemption)
from .distributions import (Deterministic, Distribution, Erlang, Exponential,
                            Hyperexponential, MrlClassification, MrlVerdict,
                            Rayleigh, ShiftedExponential, Uniform, classify_mrl,
                            from_dict, mean_residual_life)
from .errors import (AoiError, DivergentAge, TailEmpty, TruncationNotReached,
                     ZeroSuccessProbability)
from .experiments import (SweepResult, SweepRow, SweepSpec, emit_chart,
                          emit_csv, read_csv, run_sweep)
from .sim import (AgeEstimate, CycleRecord, CycleRecords, CycleStatistics,
                  Discipline, Moment, SimConfig, cycle_statistics,
                  run_simulation)

__version__ = "0.1.0"
