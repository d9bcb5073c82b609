"""Per-table / per-figure reproduction drivers (see DESIGN.md §4)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ext_lse": (),
        "ext_raid6": (),
        "ext_three_mirror": (),
        "fig7": (),
        "fig8": (),
        "fig9": (),
        "fig10": (),
        "reporting": ("ExperimentResult", "Table", "format_series"),
        "runner": ("run_all",),
        "svgplot": ("LineChart", "render_all"),
        "table1": (),
    },
)

__all__ = [
    "table1",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ext_three_mirror",
    "ext_lse",
    "ext_raid6",
    "run_all",
    "render_all",
    "LineChart",
    "ExperimentResult",
    "Table",
    "format_series",
]
