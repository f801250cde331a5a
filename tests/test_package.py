"""The package's top-level surface: what `import deptharb` offers."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import deptharb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SURFACE = {
    "AttentionError", "AttentionField", "ConfigError", "DumpError", "GuidanceConfig",
    "LatentState", "NumericalAbort", "OcclusionPair", "SceneError", "SceneObject",
    "SceneSpec", "SurrogateError", "canonical_scene", "check_gradients",
    "derive_occlusion_pairs", "init_latent", "parse_scene", "read_dump", "render_attention",
    "round_trip32", "run_guidance", "staged_loss", "write_dump",
}
# the names the benchmark harness reads from `deptharb` (perfbench/workloads.py)
BENCHMARK_NAMES = {
    "GuidanceConfig", "init_latent", "render_attention", "round_trip32", "staged_loss",
    "derive_occlusion_pairs",
}


def test_public_names_are_the_surface():
    public = {
        name for name, value in vars(deptharb).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == SURFACE


def _top_level_reads(source: str) -> set[str]:
    """Public attributes read off a name bound by `import deptharb [as alias]`."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "deptharb"
    }
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and not node.attr.startswith("_")
    }


def test_benchmark_names_are_on_the_surface():
    read = set().union(*(_top_level_reads(path.read_text()) for path in PERFBENCH.glob("*.py")))
    read -= {path.stem for path in Path(deptharb.__file__).parent.glob("*.py")}  # submodules
    assert BENCHMARK_NAMES <= read
    assert read <= SURFACE
