"""Run the table/figure reproductions behind ``repro experiments``.

Results come back in paper order: Table I, Fig. 7, Fig. 8, Fig. 9(a)/(b),
Fig. 10(a)/(b), then the §VIII extensions.
"""

from __future__ import annotations

from importlib import import_module

from .reporting import ExperimentResult

__all__ = ["EXPERIMENT_IDS", "run_all"]


def _experiment_specs(quick: bool) -> dict[str, tuple]:
    """(``"module.function"``, args, kwargs) per experiment id, in paper order.

    Every experiment is independent and deterministic (each owns its
    seeds), so the battery is an embarrassingly parallel unit of work.
    Each key is the ``experiment_id`` its function's result carries.
    The functions are named, not imported, so reading the ids loads no
    experiment module.
    """
    n_values = (3, 4, 5) if quick else (3, 4, 5, 6, 7)
    n_ops = 60 if quick else 200
    return {
        "table1": ("table1.run", (n_values,), {}),
        "fig7": ("fig7.run", (2, 20 if quick else 50), {}),
        "fig8": ("fig8.run", (), {}),
        "fig9a": ("fig9.run_a", (n_values,), {"n_stripes": 8 if quick else 16}),
        "fig9b": ("fig9.run_b", (n_values,), {"n_stripes": 6 if quick else 12}),
        "fig10a": ("fig10.run_a", (n_values,), {"n_ops": n_ops}),
        "fig10b": ("fig10.run_b", (n_values,), {"n_ops": n_ops}),
        "ext-three-mirror": (
            "ext_three_mirror.run",
            (n_values,),
            {"n_stripes": 8 if quick else 12},
        ),
        "ext-lse": (
            "ext_lse.run",
            (),
            {
                "n": 5,
                "error_counts": (0, 4, 8) if quick else (0, 2, 4, 8, 16),
                "trials": 8 if quick else 20,
            },
        ),
        "ext-raid6": (
            "ext_raid6.run",
            (),
            {
                "n_values": (4, 5) if quick else (4, 5, 6, 7),
                "n_stripes": 6 if quick else 8,
            },
        ),
    }


#: every experiment id, in paper order
EXPERIMENT_IDS = tuple(_experiment_specs(quick=False))


def _run_spec(spec: tuple) -> ExperimentResult:
    target, args, kwargs = spec
    module, fn = target.split(".")
    return getattr(import_module(f"{__package__}.{module}"), fn)(*args, **kwargs)


def run_all(
    quick: bool = False, only=None, pool=None
) -> list[ExperimentResult]:
    """The experiments in paper order, or only the ids in ``only``.

    ``pool`` (a :class:`repro.parallel.WorkerPool`) fans the battery
    across its workers; results always come back in paper order.
    """
    from ..parallel import parallel_map

    specs = _experiment_specs(quick)
    if only is not None:
        unknown = sorted(set(only) - set(specs))
        if unknown:
            raise ValueError(f"unknown experiment ids: {', '.join(unknown)}")
        specs = {eid: spec for eid, spec in specs.items() if eid in only}
    return parallel_map(_run_spec, list(specs.values()), pool=pool)
