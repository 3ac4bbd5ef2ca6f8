"""Reputation-scheduled DAG consensus, simulated and property-checked."""

__version__ = "0.1.0"

from .committee import Committee, ValidatorId, new_committee
from .config import SimConfig, load_config, parse_config
from .dag import DagState, Vertex, VertexId
from .reputation import Schedule, ScheduleBook

__all__ = [
    "Committee",
    "ValidatorId",
    "new_committee",
    "SimConfig",
    "load_config",
    "parse_config",
    "DagState",
    "Vertex",
    "VertexId",
    "Schedule",
    "ScheduleBook",
    "__version__",
]
