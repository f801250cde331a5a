"""Training-free attention-guidance engine with depth-arbitrated losses.

Scenes declare boxes and relative depths; a differentiable surrogate renders
per-object attention maps; three analytic losses (alignment, depth-weighted
orthogonality, spatial compactness) drive a two-stage gradient-descent loop;
metrics score the result.  Everything is deterministic given a seed.

The package re-exports a run's entry points, input types and exceptions; the
oracle's literal terms, single-caller helpers and result types are imported
from their modules (`gradcheck`, `losses`, `optimizer`, `metrics`).
"""

from .attention import AttentionError, AttentionField
from .dumpio import DumpError, read_dump, round_trip32, write_dump
from .gradcheck import check_gradients
from .losses import staged_loss
from .optimizer import NumericalAbort, run_guidance
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
from .surrogate import LatentState, SurrogateError, init_latent, render_attention

__version__ = "0.1.0"
