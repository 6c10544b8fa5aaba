"""Training-free merging of multi-layer projector checkpoints.

Combines expert projectors trained from a shared initialization by jointly
decomposing their updates into a shared space, decoupling per-expert cores
from domain-specific residuals, filtering inconsistent residual directions,
and weighting core merging by per-layer alignment scores. Baseline operators
(weight averaging, task arithmetic, ties, dare-ties) share the same
checkpoint plumbing.
"""

from .analysis import (
    emit_report,
    mean_offdiagonal,
    model_subspace,
    pairwise_principal_angles,
    residual_similarity,
)
from .linalg import (
    NumericalError,
    SvdFactors,
    cosine,
    orthonormal_basis,
    principal_angles,
    thin_svd,
    truncate_rank,
)
from .operators import (
    MergeOperator,
    dare,
    merge_checkpoint_deltas,
    merge_weighted,
    task_arithmetic,
    ties,
    weight_average,
)
from .pivot import (
    DecoupledLayer,
    PivotConfig,
    SharedSpaceLayer,
    decouple,
    filter_residuals,
    joint_decompose,
    merge_layer,
    pivot_merge,
    reconstruct,
    task_vectors,
)
from .scores import (
    DEFAULT_BETA,
    ScoreTable,
    compute_scores_from_features,
    layer_weights,
    read_scores,
    score_increments,
    score_table_from_feature_container,
    threshold_from_ratio,
    write_scores,
)
from .synth import SynthSpec, generate, load_ground_truth, recovery_score
from .tensorstore import (
    ContainerError,
    Layer,
    ProjectorCheckpoint,
    load_checkpoint,
    open_checkpoint,
    read_container,
    save_checkpoint,
    sorted_experts,
    write_container,
)

__version__ = "0.1.0"
