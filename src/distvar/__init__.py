"""Distinguished varieties, co-extensions and spectral-set certificates
for pairs of commuting contractive matrices."""

from .annvar import (
    AnnihilatorBasis,
    SupportBounds,
    ann_generators,
    check_projection,
    check_support,
    check_zann_equals_omega,
    omega_psi,
    settle,
    support_bounds,
    synthesis_report,
    z_ann,
)
from .certify import (
    VarietySamples,
    isometry_variant,
    min_conditions,
    sup_on_variety,
    vn_report,
    williams_check,
)
from .dilation import (
    CoextensionBundle,
    coextension_embedding,
    compress_pair,
    construct_psi,
    constrained_coextension,
    embed_J,
    model_shift,
    verify_coextension,
)
from .inner import (
    BPFactor,
    MatrixInnerFunction,
    VarietyDescription,
    boundary_unitarity_defect,
    distinguished_certificate,
    eval_psi,
    eval_psi_grid,
    fiber,
    fibers_grid,
    from_bp_factors,
    from_colligation,
    from_polynomial,
    from_scalar_blaschke_identity,
    interior_pureness,
    psi_of_matrix,
    taylor_at,
    variety_polynomial,
)
from .instances import (
    Instance,
    InstanceSpec,
    make_instance,
    random_recipe,
    random_test_polys,
    run_certification,
)
from .opcore import (
    CommutingPair,
    JointSpectrum,
    blaschke_apply,
    defect,
    joint_point_spectrum,
    joint_spectrum_taylor,
    matching_distance,
    minimal_blaschke,
    poly_apply,
    poly_stack,
    validate_pair,
)
from .poly import (
    BlaschkeProduct,
    Poly1,
    Poly2,
    blaschke_eval,
    fit_tensor_nodes,
    has_simple_roots,
    normalize_unit,
    unit_distance,
)
from .report import CertEntry, CertificateReport
from .tolerances import DEFAULT, Tolerances

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
