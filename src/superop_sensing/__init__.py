"""Low-rank sensing of quantum superoperators.

Channels and Lindbladians are represented by an N^2 x N^2 Hermitian reshaped
matrix whose rank equals the number of signed Kraus terms. The package
simulates linear measurements of that matrix (random state/observable pairs
or a shared-observable blockwise design), recovers it by alternating least
squares with momentum (zero momentum is plain ALS), completes it from one
block row deterministically, and benchmarks the whole pipeline reproducibly.
"""

from .errors import (AssumptionViolationError, DegenerateSpectrumError,
                     DimensionError, DivergenceError, UndefinedMetricError)
from .harness import (ExperimentConfig, ExperimentResult, emit_results,
                      recovery_rate, relative_frobenius_error, run_experiment)
from .linalg import (SvdResult, complex_gaussian, least_squares, load_cmx,
                     pseudo_inverse, save_cmx, truncated_svd)
from .measurements import (MeasurementSet, RipProbe, SensingDesign,
                           build_blockwise_design, build_design, build_random_design,
                           empirical_rip_probe, pauli_basis, sample_pauli,
                           simulate_measurements, synth_state_combination)
from .models import (Lindbladian, Superoperator, apply_superop, draw_truth,
                     haar_low_rank_hermitian, lindblad_apply, lindblad_canonical,
                     random_channel, random_density, random_lindbladian,
                     random_observable, random_pairs, superop_from_reshaped)
from .reconstruction import CompletedMatrix, reconstruct_full
from .reshaping import (ReshapedMatrix, choi_reshape, hs_inner, kron, reshape_R,
                        superop_matrix, unvec, vec)
from .solvers import (FactorPair, SolveReport, SolverConfig,
                      nesterov_als_solve, sensing_loss, solve_first_row_joint,
                      solve_first_row_parallel, solve_first_row_subset,
                      set_up_strategy, solve_strategy)

__version__ = "0.1.0"
