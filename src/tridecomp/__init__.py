"""Decomposition analysis for multipartite pure states.

Schmidt and triorthogonal decompositions, uniqueness-condition certificates,
the named instability constructions, entropy-based isolation witnesses, and
seeded campaigns checking the quantitative stability bounds.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, DENSIFY_CEILING, Tolerances
from .errors import (
    CapacityError,
    DimensionMismatchError,
    InvalidStateError,
    PreconditionError,
    SchemaError,
    TridecompError,
    VerificationError,
)
from .states import (
    DenseState,
    DensityMatrix,
    ProductSpace,
    ProductTerm,
    SumState,
    aligned_density_matrices,
    as_dense,
    densify,
    haar_random_state,
    inner,
    norm,
    partial_trace,
    partial_trace_matrix,
    project_factor,
    sparse_vector,
    sparsify,
    sv_inner,
    sv_norm,
    trace_norm,
)
from .spectral import (
    EntropyValue,
    Spectrum,
    entropy,
    entropy_decomposition_bound,
    reduced_spectra,
    spectrum,
    triortho_necessary_test,
    verify_spectral_lemmas,
)
from .decomp import (
    Block,
    NotTriorthogonal,
    OrderedTriortho,
    SchmidtDecomposition,
    TriCertificate,
    TriDecomposition,
    Undetermined,
    Variant,
    canonical_phase,
    decompositions_equivalent,
    extract_triortho,
    linear_independence,
    ordered_triortho,
    schmidt,
    schmidt_rank,
    truncate_terms,
    verify_tridecomposition,
)
from .matching import (
    MatchReport,
    PairRecord,
    ProductMatchReport,
    match_components,
    match_single_product,
)
from .constructions import (
    InstabilityPair,
    MoverUnitary,
    TensorStructurePair,
    dft_basis,
    example31,
    example32,
    example33,
    instability_pair,
    isolation_witness_3,
    isolation_witness_4,
    non_triortho_perturb,
    schmidt_rotation,
    structure_mover,
)
from .experiments import (
    CampaignReport,
    TrialConfig,
    run_closure_test,
    run_instability_sweep,
    run_isolation_scan,
    run_stability_campaign,
)
