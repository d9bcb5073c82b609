"""Core layout algebra: the paper's contribution and its analysis.

The public surface re-exports the arrangement classes, property
checkers, layout/architecture classes, plans, stacks and closed-form
analysis used throughout the reproduction.
"""

from .arrangement import (
    Arrangement,
    IdentityArrangement,
    IteratedArrangement,
    PermutationArrangement,
    ShiftedArrangement,
    transform_once,
)
from .errors import LayoutError, ReproError, UnrecoverableFailureError
from .layouts import (
    Content,
    Layout,
    MirrorLayout,
    MirrorParityLayout,
    RAID5Layout,
    RAID6Layout,
    ThreeMirrorLayout,
    XCodeLayout,
    shifted_mirror,
    shifted_mirror_parity,
    traditional_mirror,
    traditional_mirror_parity,
)
from .plancache import PlanCache
from .planner import schedule_read_rounds, schedule_rounds, schedule_write_rounds
from .properties import (
    is_equally_powerful,
    property_report,
    satisfies_property1,
    satisfies_property2,
    satisfies_property3,
)
from .reconstruction import ReconstructionPlan, RecoveryMethod, RecoveryStep
from .stack import RotatedStack
from .stripe import ArrayKind, ElementAddr, StripeGeometry
from .writes import WritePlan

from . import analysis, reliability

__all__ = [
    "Arrangement",
    "IdentityArrangement",
    "ShiftedArrangement",
    "IteratedArrangement",
    "PermutationArrangement",
    "transform_once",
    "satisfies_property1",
    "satisfies_property2",
    "satisfies_property3",
    "property_report",
    "is_equally_powerful",
    "ArrayKind",
    "ElementAddr",
    "StripeGeometry",
    "Content",
    "Layout",
    "MirrorLayout",
    "MirrorParityLayout",
    "ThreeMirrorLayout",
    "RAID5Layout",
    "RAID6Layout",
    "XCodeLayout",
    "traditional_mirror",
    "shifted_mirror",
    "traditional_mirror_parity",
    "shifted_mirror_parity",
    "ReconstructionPlan",
    "RecoveryMethod",
    "RecoveryStep",
    "WritePlan",
    "PlanCache",
    "RotatedStack",
    "schedule_rounds",
    "schedule_read_rounds",
    "schedule_write_rounds",
    "ReproError",
    "UnrecoverableFailureError",
    "LayoutError",
    "analysis",
    "reliability",
]
