"""blockten: compression of structured block matrices via weighted tensors.

A matrix built from ``p`` distinct blocks repeated across a block grid is
mapped isometrically onto an ``m x p x n`` tensor, compressed with standard
tensor factorizations (HOSVD / partial Tucker / CP / randomized bases), and
mapped back to structured formats -- Kronecker sums or block-low-rank
factors -- whose approximation error equals the tensor error exactly.
"""

from __future__ import annotations

from .blocks import (
    BlockPattern,
    blocks_to_tensor,
    build_pattern,
    detect_pattern,
    extract_blocks,
    mat_to_tensor,
    struct_assemble,
    struct_expand,
    tensor_to_mat,
)
from .decomp import (
    CpResult,
    KruskalRep,
    TuckerRep,
    cholesky,
    cp_als,
    hosvd,
    qr_thin,
    randomized_mode_basis,
    svd_truncated,
    tucker_partial,
)
from .errors import (
    ContainerExtentError,
    ContainerFormatError,
    ConvergenceError,
    NotPositiveDefiniteError,
    PatternMismatchError,
    ShapeError,
)
from .apps import (
    EraResult,
    KernelConfig,
    LtiSystem,
    MarkovSequence,
    era_identify_compressed,
    hankel_pattern_from_markov,
    hausdorff_eigs,
    markov_from_lti,
    report_metrics,
    spacetime_build,
)
from .container import container_read, container_write
from .multilevel import (
    MultilevelPattern,
    MultilevelTuckerRep,
    blur_operator_dense,
    ml_mat_to_tensor,
    ml_tensor_to_mat,
    psf_weighted_tensor,
)
from .psd import (
    SpdRep,
    SpsdRep,
    check_transpose_closed,
    spd_compress,
    spd_compress_blocks,
    spsd_compress,
    spsd_compress_blocks,
)
from .reconstruct import (
    BlockLowRankRep,
    FlopCounter,
    KronSumRep,
    blr_from_kruskal,
    blr_from_tucker,
    class_error_fro,
    densify,
    error_fro,
    kron_sum_from_kruskal,
    kron_sum_from_tucker,
    matvec,
)
from .tensor import fold, fro_norm, mode_multiply, unfold

__version__ = "0.1.0"
