"""Simulated P-RAM machine models with program-step accounting.

See :class:`repro.machine.Machine` for the entry point.
"""
from .capabilities import CAPABILITIES, Capabilities, MODEL_NAMES
from .counters import ForkCounters, StepCounter, StepSnapshot
from .model import CapabilityError, Machine

__all__ = [
    "CAPABILITIES",
    "COMPARISONS",
    "Capabilities",
    "CapabilityError",
    "ForkCounters",
    "MODEL_NAMES",
    "Machine",
    "ModelComparison",
    "StepCounter",
    "StepSnapshot",
    "render_models_table",
    "run_comparison",
]

from .comparison import (  # noqa: E402  (needs Machine defined above)
    COMPARISONS,
    ModelComparison,
    render_models_table,
    run_comparison,
)
