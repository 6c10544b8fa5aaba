"""Training-free merging of multi-layer projector checkpoints.

Combines expert projectors trained from a shared initialization by jointly
decomposing their updates into a shared space, decoupling per-expert cores
from domain-specific residuals, filtering inconsistent residual directions,
and weighting core merging by per-layer alignment scores. Baseline operators
(weight averaging, task arithmetic, ties, dare-ties) share the same
checkpoint plumbing.
"""

import os
import sys

# After each threaded call OpenBLAS's idle workers spin for 2^28 TSC cycles
# (about 0.13 s at 2 GHz) before they sleep. The layer kernel alternates short
# LAPACK calls with numpy-only stages a few ms apart, so a worker would spin
# through the whole run. 2^18 cycles parks it between calls. OpenBLAS reads the
# variable once, when numpy loads it, so it is set only if numpy is not loaded
# yet, and a value the user set wins. It changes only how long an idle worker
# waits, not the thread count or how work is split, so no output changes.
# Other BLAS builds ignore it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")

from .analysis import (
    emit_report,
    mean_offdiagonal,
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
from .operators import MergeOperator, merge_checkpoint_deltas, merge_weighted
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
    layer_weights,
    read_scores,
    score_increments,
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
