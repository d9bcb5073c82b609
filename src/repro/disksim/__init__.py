"""Event-driven disk and disk-array simulator (the hardware substrate).

The paper evaluated on a 16-disk SAS array of Seagate Savvio 10K.3
drives; we substitute this simulator, calibrated to the drive figures
printed in §VII (54.8 MB/s peak read, 130 MB/s peak write, 10 krpm,
16 MB cache).  See DESIGN.md §2 for the substitution argument.
"""

from .array import DEFAULT_ELEMENT_SIZE, ElementArray
from .calendar import OP_CALL, OP_COMPLETE, TypedCalendar
from .disk import DiskModel, DiskParameters
from .events import Simulation
from .faultplan import (
    ActiveFaults,
    DiskFailure,
    FailSlow,
    FaultPlan,
    InjectionCounters,
    TransientFaults,
)
from .faults import LatentSectorErrors
from .request import IOKind, IORequest
from .scheduler import ElevatorScheduler, FIFOScheduler, PriorityScheduler, Scheduler

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
