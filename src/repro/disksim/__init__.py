"""Event-driven disk and disk-array simulator (the hardware substrate).

The paper evaluated on a 16-disk SAS array of Seagate Savvio 10K.3
drives; we substitute this simulator, calibrated to the drive figures
printed in §VII (54.8 MB/s peak read, 130 MB/s peak write, 10 krpm,
16 MB cache).  See DESIGN.md §2 for the substitution argument.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "array": ("DEFAULT_ELEMENT_SIZE", "ElementArray"),
        "autotune": (),
        "calendar": ("OP_CALL", "OP_COMPLETE", "TypedCalendar"),
        "disk": ("DiskModel", "DiskParameters"),
        "events": ("Simulation",),
        "faultplan": (
            "ActiveFaults",
            "DiskFailure",
            "FailSlow",
            "FaultPlan",
            "InjectionCounters",
            "TransientFaults",
        ),
        "faults": ("LatentSectorErrors",),
        "request": ("IOKind", "IORequest"),
        "scheduler": (
            "ElevatorScheduler",
            "FIFOScheduler",
            "PriorityScheduler",
            "Scheduler",
        ),
    },
)

__all__ = [
    "DiskParameters",
    "DiskModel",
    "IOKind",
    "IORequest",
    "Scheduler",
    "FIFOScheduler",
    "ElevatorScheduler",
    "PriorityScheduler",
    "Simulation",
    "TypedCalendar",
    "OP_CALL",
    "OP_COMPLETE",
    "LatentSectorErrors",
    "FaultPlan",
    "TransientFaults",
    "FailSlow",
    "DiskFailure",
    "ActiveFaults",
    "InjectionCounters",
    "ElementArray",
    "DEFAULT_ELEMENT_SIZE",
]
