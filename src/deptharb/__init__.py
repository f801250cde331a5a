"""Training-free attention-guidance engine with depth-arbitrated losses.

Scenes declare boxes and relative depths; a differentiable surrogate renders
per-object attention maps; three analytic losses (alignment, depth-weighted
orthogonality, spatial compactness) drive a two-stage gradient-descent loop;
metrics score the result.  Everything is deterministic given a seed.
"""

from .attention import AttentionError, AttentionField
from .dumpio import DumpError, read_dump, round_trip32, write_dump
from .gradcheck import (
    CoordGrid,
    GradCheckResult,
    alignment_ratio,
    attention_energies,
    check_gradients,
    coord_grid,
    interference,
    spatial_mean,
    spatial_variance,
)
from .losses import (
    LossBreakdown,
    arbitration_weight,
    staged_loss,
    staged_total,
)
from .metrics import (
    FocrResult,
    LayoutMiou,
    MetricReport,
    NONE_ID,
    build_metric_report,
    focr,
    layout_miou,
)
from .optimizer import (
    NumericalAbort,
    StepRecord,
    Trajectory,
    run_guidance,
    stage_of,
    step_size,
)
from .scene import (
    ConfigError,
    GuidanceConfig,
    OcclusionPair,
    SceneError,
    SceneObject,
    SceneSpec,
    canonical_scene,
    derive_occlusion_pairs,
    parse_scene,
)
from .surrogate import (
    LatentState,
    SurrogateError,
    init_latent,
    render_attention,
)

__version__ = "0.1.0"
