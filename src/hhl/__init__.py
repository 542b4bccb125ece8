"""Numerical toolkit for Hausdorff averaging operators on Hardy spaces.

Implements the averaging transform f -> integral of f(./t) phi(t)/t dt on
the real line and on holomorphic functions of the upper half-plane, and
verifies its sharp operator-norm formulas, boundary-value identity,
Hilbert-transform commutation, and H1/BMO bounds at desk scale.
"""

from .halfplane import (
    CayleyPower,
    HardyNormEstimate,
    HoloFunction,
    InverseSquare,
    LinearCombination,
    PoissonExtension,
    boundary_trace,
    hardy_norm,
    nontangential_max,
    pointwise_bound_check,
    poisson_extend,
    vertical_shift,
)
from .hausdorff import (
    KernelImage,
    SweepResult,
    apply_complex,
    apply_real,
    boundary_identity_check,
    lp_lower_bound_sweep,
    norm_lower_bound_sweep,
    norm_upper_bound,
)
from .hilbert import (
    analytic_completion,
    commutation_check,
    hilbert,
    hilbert_with_tails,
    project_minus,
    project_plus,
)
from .kernels import (
    Kernel,
    MomentValue,
    adjoint_kernel,
    cesaro,
    dilate_truncate,
    eval_kernel,
    gen_cesaro,
    hardy_type,
    kernel_from_config,
    moment,
    moment_exponent,
    scale_kernel,
    table_kernel,
    truncate_below,
    zero_kernel,
)
from .quadrature import (
    BudgetError,
    DivergenceError,
    QuadResult,
    integrate,
    integrate_halfline,
    integrate_pv,
)
from .realline import SampledLine, eval_at, eval_dilated, lp_norm, resample, to_csv

__version__ = "0.1.0"
