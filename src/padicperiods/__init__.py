"""Exact linear algebra over p-adic fields at truncated precision, with
explicit integral models, period-matrix correspondences, valuation ledgers,
and truncated formal group laws."""

from .padic import (
    AtLeast,
    FieldDescriptor,
    PadicElement,
    PadicMatrix,
    PrecisionError,
    certified_rank,
    charpoly,
    kernel_basis,
    make_field,
    make_field_cached,
    saturate_lattice,
    smith_form,
    teichmueller,
)
from .semilinear import (
    FilteredIsocrystal,
    Isocrystal,
    linearize,
    newton_slopes,
    phi_fixed_points,
    weak_admissibility_sample,
)
from .models import (
    DeltaIsogeny,
    LubinTateModel,
    SpecialModel,
    build_DG,
    build_DH,
    delta_matrix,
    iota_matrix,
    phi_matrix,
)
from .periods import (
    PeriodMatrix,
    ProjectivePoint,
    RankCertificationError,
    act,
    correspond,
    fil_G,
    fil_H,
    from_matrix,
    omega_membership,
    random_point,
)
from .ledger import (
    CMDatum,
    HeightLedger,
    beta_integrality,
    check_sum_identity,
    cm_period_valuations,
    det_valuation_Dr,
    det_valuation_LT,
    functional_equation_valuations,
    height_transfer,
    lt_character_valuation,
)
from .formal import (
    FormalGroupLaw,
    PowerSeriesTrunc,
    group_law,
    height_certificate,
    lubin_tate_log,
    p_series,
    zeta_action,
)

__version__ = "0.1.0"
