"""Bell-operator hidden-variable bounds from phase-space parity projectors."""

__version__ = "0.1.0"

from .quad import IntegrationSpec, QuadResult, QuadratureError
from .fock import (
    CollapseError,
    DensityMatrix,
    FockOperator,
    bell_pair_state,
    displacement,
    displacement_element,
    identity,
    luders_collapse,
    number_projector,
    parity,
    quantizer,
    tensor,
    trace_product,
)
from .weyl import (
    RadialSymbol,
    SpectralExpansion,
    bell_eigenvalue_generating,
    quantize_radial,
    sign_step,
    symbol_of,
    unit_symbol,
    wigner,
)
from .hvbound import (
    BellReport,
    Decomposition,
    bell_report,
    bound_difference,
    chsh_decomposition,
    hv_bound,
    qm_mean,
)
from .phasespace import (
    SEPARATION_STEP,
    BipartiteCase,
    SigmaCurve,
    SingleParticleCase,
    bp_hv_bound,
    bp_qm_mean,
    coarse_parity_bound,
    sigma_curve,
    sp_hv_bound,
    sp_hv_bound_generic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
