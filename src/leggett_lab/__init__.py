"""Numerical laboratory for Leggett and CHSH inequality tests with
entangled coherent states and a two-qubit polarization baseline."""

from .coherent_algebra import (
    EcsSpec,
    kappa_K,
    operator_elements,
    pseudospin_bloch,
)
from .correlations import (
    CorrelationModel,
    ecs_model,
    pes_model,
)
from .geometry import (
    Direction,
    SettingsLayout,
    build_layout,
    build_layouts,
    from_cartesian,
    rotate_settings,
)
from .inequality import (
    BoundResult,
    ChshEvaluation,
    LeggettEvaluation,
    analytic_fmin,
    chsh_at_layout,
    chsh_value,
    leggett_bound,
    leggett_value,
    pes_fmin,
)
from .optimize import (
    ConvergenceError,
    ImplicationReport,
    ScanTask,
    SearchConfig,
    SweepRecord,
    ThresholdResult,
    implication_check,
    numeric_fmin,
    optimize_chsh,
    optimize_rigid,
    scan,
    threshold_alpha,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
