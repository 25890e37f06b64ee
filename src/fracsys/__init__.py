"""fracsys: nonlocal operators, energies and solvers of fractional order 2s,
with probes for oscillation decay, Harnack ratios and structural conditions.

The package splits into:

* kernels        admissible symmetric kernels and their normalization
* fields         grids, exterior rules, sampled fields, ball averages
* enclosing      the smallest enclosing ball behind the decay ledgers
* quadrature     singular-kernel weights shared by every operator
* operators      L_K, the fractional Laplacian, the bilinear form, energies,
                 and the independent spectral oracle
* solvers        linear Dirichlet problems, sphere-constrained flow, the
                 penalized relaxation
* probe          growth-constant audits, contraction steps, dyadic decay
                 ledgers, Harnack sweeps, barrier bounds
* verify         closed-form identity checks and the s -> 1 limits
* reports, cli   canonical serialization and the experiment runner
"""

from .enclosing import smallest_enclosing_ball
from .errors import DomainError, SolverError
from .fields import (ExteriorRule, GridSpec, SampledField, callback_rule,
                     constant_field, constant_rule, field_average,
                     field_from_function, parse_rule, periodic_rule,
                     radial_projection_rule, restrict_rescale, sign_rule,
                     zero_rule)
from .kernels import (KernelSpec, kernel_bounds_check, make_anisotropic_kernel,
                      make_custom_kernel, make_fractional_kernel,
                      normalization_constant, normalization_limit)
from .operators import (AssembledOperator, EnergyValue, apply_LK, apply_LK_field,
                        apply_fractional_laplacian,
                        apply_fractional_laplacian_field, assemble_dirichlet,
                        bilinear_form, bilinear_form_field, s_energy,
                        spectral_apply)
from .probe import (DecayLedger, GrowthBounds, HarnackReport, barrier_bound,
                    contraction_step, dyadic_ledger, harnack_probe,
                    harnack_sweep, head_start_level,
                    supersolution_family, scaling_ledger,
                    structural_audit)
from .quadrature import QuadratureScheme, scheme_for
from .reports import (canonical_json, emit_report, read_field_fsf1, write_csv,
                      write_field_csv, write_field_fsf1)
from .solvers import (GLConfig, LinearProblem, SolveReport, default_flow_step,
                      euler_lagrange_residual, gradient_flow_s_harmonic,
                      ginzburg_landau_solve, solve_linear_dirichlet)
from .verify import (LimitReport, SmoothedSign, counterexample_residual,
                     s_limit_anisotropic, s_limit_isotropic,
                     sign_algebra_check, square_identity_check)

__version__ = "0.1.0"
