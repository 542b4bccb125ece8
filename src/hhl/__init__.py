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
    hardy_norm,
    poisson_extend,
)
from .hausdorff import (
    KernelImage,
    SweepResult,
    boundary_identity_check,
    lp_lower_bound_sweep,
    norm_lower_bound_sweep,
)
from .hilbert import (
    commutation_check,
    hilbert,
    hilbert_with_tails,
)
from .kernels import (
    Kernel,
    MomentValue,
    adjoint_kernel,
    cesaro,
    eval_kernel,
    gen_cesaro,
    hardy_type,
    kernel_from_config,
    moment,
    moment_exponent,
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
from .realline import SampledLine, eval_at, lp_norm

__version__ = "0.1.0"
