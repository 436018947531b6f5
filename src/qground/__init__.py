"""Ground states, mass curves and small-frequency asymptotics for the
quasilinear Schrodinger equation

    Lap(u) - omega u + |u|^{p-1} u + delta Lap(u^2) u = 0  on R^N.

The solver works in the dual semilinear variable v = h(u), shoots for the
unique positive radial profile, and verifies itself through the Pohozaev
and Nehari identities.  Linearized spectra, the mass curve M(omega) with
both derivative routes, and the three omega -> 0 regimes (subcritical,
critical, supercritical) are covered by the submodules.
"""

from .asymptotics import (AubinTalenti, FitResult, MassCurvePoint,
                          bubble_distance, critical_scaling_report,
                          energy_limit_check, extract_lambda, fit_power_law,
                          subcritical_expansion_check,
                          supercritical_limit_check)
from .branch import BranchStore, SweepPlan, geometric_ladder, run_sweep
from .errors import (AmbiguousTrajectory, BracketFailure, ConstraintViolated,
                     Divergent, EntryMismatch, InsufficientNeighbors,
                     InsufficientWindow, InvalidParams, NearSingular,
                     NoConvergence, NoGroundState, QGroundError,
                     RegimeMismatch)
from .integrals import (ScalarDiagnostics, compute_diagnostics,
                        dual_pohozaev_residual, integrate_radial,
                        level_m_omega, nehari_residual, pohozaev_residual,
                        sobolev_constant)
from .params import (Decay, Params, RadialGrid, RadialProfile, Regime,
                     classify, make_grid)
from .shooting import (ShootingConfig, SolveReport, nls_ground_state,
                       series_start, solve_ground_state)
from .spectra import (DiscreteOperator, MatrixL, SpectralReport, assemble,
                      build_spectral_report, low_spectrum, matrix_l,
                      mprime_resolvent, negative_count)
from .transform import h, r, s_star

__version__ = "0.1.0"
