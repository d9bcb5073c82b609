"""Core layout algebra: the paper's contribution and its analysis.

The public surface re-exports the arrangement classes, property
checkers, layout/architecture classes, plans, stacks and closed-form
analysis used throughout the reproduction.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": (),
        "arrangement": (
            "Arrangement",
            "IdentityArrangement",
            "IteratedArrangement",
            "PermutationArrangement",
            "ShiftedArrangement",
            "transform_once",
        ),
        "errors": ("LayoutError", "ReproError", "UnrecoverableFailureError"),
        "layouts": (
            "Content",
            "Layout",
            "MirrorLayout",
            "MirrorParityLayout",
            "RAID5Layout",
            "RAID6Layout",
            "ThreeMirrorLayout",
            "XCodeLayout",
            "shifted_mirror",
            "shifted_mirror_parity",
            "traditional_mirror",
            "traditional_mirror_parity",
        ),
        "plancache": ("PlanCache",),
        "properties": (
            "property_report",
            "satisfies_property1",
            "satisfies_property2",
            "satisfies_property3",
        ),
        "reconstruction": ("ReconstructionPlan", "RecoveryMethod", "RecoveryStep"),
        "registry": (),
        "reliability": (),
        "stack": ("RotatedStack",),
        "stripe": ("ArrayKind", "StripeGeometry"),
        "writes": ("WritePlan",),
    },
)

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
    "ArrayKind",
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
    "ReproError",
    "UnrecoverableFailureError",
    "LayoutError",
    "analysis",
    "reliability",
]
