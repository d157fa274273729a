"""Checks and certificates for kernel operators with increasing spectrum
relative to standard compressions."""

import types as _types

from .spaces import (
    MeasureSpace,
    StandardSet,
    build_space,
    nested_chain,
)
from .operators import (
    FiniteRankOperator,
    Operator,
    compress,
    densify,
    kernel_operator,
    modulus,
    numerical_rank,
    ones_kernel,
    sharpness_example,
    sharpness_example_factors,
    trace,
    trace_power,
    volterra_linear,
)
from .spectral import (
    SpectrumReport,
    eigenvalues,
    nonzero_eigen_match,
)
from .increasing import (
    PropertyReport,
    check_increasing_spectrum,
    radius_profile,
)
from .cycles import (
    SupportDigraph,
    find_nondegenerate_cycle,
    moment_identities,
    shortest_cycle,
    support_digraph,
)
from .triangular import (
    TriangularizationCertificate,
    assert_nilpotent_compressions,
    increasing_spectrum_block_form,
    max_kernel_projection,
    nilpotent_block_form,
    scc_triangularize,
    verify_certificate,
)
from .jsonio import (
    canonical_dumps,
    named_operator,
    operator_from_dict,
)
from .errors import (
    DimensionMismatchError,
    KernelTriError,
    PreconditionError,
    SpaceError,
    TheoremViolationError,
)

# the names imported above; the submodules they come from are not exported
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
