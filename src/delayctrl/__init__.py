"""Numerical toolkit for infinite-horizon stochastic optimal control with
a discrete delay, an exponential moving average of the past, and
compound-Poisson jumps.

The pieces fit together as follows: ``model`` validates problem data and
grids, ``forward`` simulates the controlled state (its variational
process is a step accumulator), ``objective`` estimates the discounted reward,
``hamiltonian`` evaluates the one Hamiltonian of both formulations,
``absde`` runs the weighted Picard iteration for time-advanced backward
equations, ``adjoint`` assembles the adjoint
drivers and solves both adjoint systems, ``mp`` verifies the sufficient
and necessary optimality conditions, and ``examples`` supplies two
closed-form benchmarks used as ground truth.
"""

__version__ = "0.1.0"

from .errors import (BadInterval, BadWeight, BadWindow, ConfigError,
                     DelayCtrlError, DivergentIntegral, DomainError,
                     GridMismatch, NoConvergence, NonFinite, NonFiniteDriver,
                     NonFiniteObjective, NonFiniteSegment, NonFiniteState,
                     NoSignChange)
from .model import (CoefficientSet, DiscreteMarks, JumpModel, ProblemSpec,
                    TimeGrid, build_problem, make_grid, zero_partial)
from .forward import (ControlSpec, EnsembleResult, PathRecord,
                      StepAccumulator, bump_control, constant_control,
                      feedback_control, scale_control, segment_average,
                      simulate_ensemble, simulate_noiseless, simulate_path,
                      simulate_variational, table_control,
                      update_moving_average)
from .objective import ObjectiveEstimate, compare_controls, estimate_J
from .hamiltonian import (HamArgs, ItoTestFunction, eval_H, grad_H,
                          ito_delay_residual, maximize_scalar)
from .absde import (AdjointTriple, AdvancedDriver, PicardReport,
                    auto_weight, contraction_diagnostics, epsilon_rule,
                    picard_solve, uniqueness_probe, weighted_distance)
from .adjoint import (SecondAdjointResult, build_first_driver, p3_flatness,
                      solve_first_adjoint, solve_second_adjoint)
from .mp import (NecessityReport, SufficiencyReport, check_sufficient_first,
                 check_sufficient_second, necessary_residual,
                 variational_consistency)
from .examples import (Example34Params, Example35Params, ex34_adjoint,
                       ex34_control, ex34_feedback, ex34_objective,
                       ex34_p0_star, ex34_state,
                       ex35_adjoint, ex35_alpha_residual,
                       ex35_feedback, ex35_K, ex35_matched_alpha,
                       make_ex34_problem, make_ex35_problem)
