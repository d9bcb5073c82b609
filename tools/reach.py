#!/usr/bin/env python3
"""Reach census: every function in ``src/repro`` must be called by a command.

The commands reproduce the paper's results, so a function none of them
calls is not part of the reproduction.  This tool runs a fixed list of
commands (:func:`_runs`: every CLI subcommand and layout, the examples
and the benchmark scripts), each in its own interpreter under
``sys.setprofile``/``threading.setprofile``, and records every code
object that gets called, in worker processes too.  It then walks the
AST of ``src/repro`` and exits 1 when

* a function was never called and has no :data:`ALLOWLIST` entry, or
* an :data:`ALLOWLIST` entry names a function that was called or that
  no longer exists.

Two kinds of function are not counted, one rule each: dunder methods,
and bodies that only ``raise NotImplementedError`` (a base class's
must-override method).  A function nested in an unreached function is
reported through its parent.

Standard library only::

    python tools/reach.py

It takes about 2-3 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Reason for every name ``benchmarks/e2e`` looks up (``layers.py``
#: ``TARGETS``, or an import or attribute in ``child.py``): deleting one
#: makes the end-to-end benchmark fail.
E2E = "benchmarks/e2e resolves it"

_SCRAPE = "serves `/metrics`, which CI scrapes during a live faultcampaign"
_READER = "instrument reader the tests use"

#: ``module:qualname`` -> why the function stays although no run calls it.
ALLOWLIST: dict[str, str] = {
    # names benchmarks/e2e wraps or imports
    "repro.core.plancache:PlanCache.read_rounds": E2E,
    "repro.disksim.autotune:batch_threshold": E2E,
    "repro.disksim.events:Simulation.submit_many_at": E2E,
    "repro.obs.timeseries:TimelineRecorder.merge": E2E,
    "repro.raidsim.controller:RaidController.stripe_plan": E2E,
    "repro.workloads.film:FilmSource.element": E2E,
    # test fixtures and references
    "repro.disksim.disk:DiskParameters.ideal":
        "zero-overhead test disk that reduces timings to access counts",
    "repro.disksim.faults:LatentSectorErrors.slots_hit":
        "reference the tests check the LSE engine hook against",
    "repro.disksim.faults:LatentSectorErrors.inject":
        "places chosen bad cells for FaultPlan.lse_cells and the tests",
    "repro.disksim.events:Simulation.submit_at":
        "the deferred-submit-at golden completion digest pins it",
    "repro.disksim.array:BatchSubmission.op_requests":
        "the tests check the coalescer's op-to-request mapping with it",
    "repro.disksim.request:IORequest._astuple":
        "IORequest.__eq__/__repr__ call it; the tests compare requests",
    "repro.disksim.request:IORequest.latency":
        "the retry timeout path (RetryPolicy.timeout_s) reads it",
    "repro.workloads.openloop:RebuildThrottle.delay_s":
        "Protocol declaration; every throttle's own delay_s is reached",
    "repro.nemesis.anomaly:AnomalyDetector.baseline": _READER,
    "repro.obs.metrics:Counter.total": _READER,
    "repro.obs.metrics:Counter.value": _READER,
    "repro.obs.metrics:Gauge.value": _READER,
    "repro.obs.metrics:Histogram.state": _READER,
    "repro.obs.metrics:_Instrument.label_sets": _READER,
    "repro.obs.metrics:_NullInstrument.total": _READER,
    "repro.obs.metrics:_NullInstrument.value": _READER,
    # the live /metrics endpoint
    "repro.obs.http:_Handler._reply": _SCRAPE,
    "repro.obs.http:_Handler.do_GET": _SCRAPE,
    "repro.obs.http:_Handler.log_message": _SCRAPE,
    "repro.obs.http:_escape_label": _SCRAPE,
    "repro.obs.http:_fmt": _SCRAPE,
    "repro.obs.http:_label_str": _SCRAPE,
    "repro.obs.http:_metric_name": _SCRAPE,
    "repro.obs.http:prometheus_text": _SCRAPE,
}

# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------

_SERVE_THROTTLES = ("none", "fixed:0.002", "token:200", "latency:50")


def _cli(*args: str, env: dict | None = None) -> tuple[dict, list[str]]:
    return (env or {}, ["-m", "repro.cli", *args])


def _runs() -> list[tuple[dict, list[str]]]:
    """The fixed command list, in order (later runs read earlier outputs)."""
    sys.path.insert(0, str(SRC))
    try:
        from repro.core.registry import LAYOUTS, build_layout, comparison_families
    finally:
        sys.path.pop(0)
    layouts = sorted(LAYOUTS)
    tolerance = {name: build_layout(name, 5).fault_tolerance for name in layouts}
    families = comparison_families()
    runs = [
        _cli("arrange", "--n", "3"),
        _cli("arrange", "--n", "4", "--identity"),
        _cli("arrange", "--n", "5", "--iterate", "2"),
        _cli("table1", "--n", "5"),
        _cli("reliability", "--n", "4", "--stripes", "4"),
        _cli("experiments", "--quick", "--jobs", "2"),
        _cli("svg", "--quick", "--timelines", "--outdir", "figures"),
    ]
    for name in layouts:
        runs += [
            _cli("plan", "--layout", name, "--n", "5", "--failed", "0", "-v"),
            _cli("plan", "--layout", name, "--n", "5", "--failed",
                 *map(str, range(tolerance[name]))),
            _cli("write-plan", "--layout", name, "--n", "5", "--row", "0"),
            _cli("write-plan", "--layout", name, "--n", "5", "--element",
                 "0,0", "1,1", "--strategy", "reconstruct"),
            _cli("simulate", "rebuild", "--layout", name, "--n", "5",
                 "--failed", "0", "--stripes", "4"),
            _cli("simulate", "writes", "--layout", name, "--n", "5",
                 "--stripes", "4", "--ops", "20"),
            _cli("scrub", "--layout", name, "--n", "5", "--stripes", "4",
                 "--errors", "6"),
        ]
    for family in families:
        runs.append(_cli("faultcampaign", "--family", family, "--n", "4",
                         "--stripes", "4"))
        runs.append(_cli("serve", "--family", family, "--n", "4",
                         "--stripes", "6"))
    runs += [
        _cli("faultcampaign", "--family", "mirror-parity", "--n", "4",
             "--stripes", "4", "--fail-slow-disk", "1",
             "--second-failure-disk", "2", "--json", "campaign.json"),
        _cli("faultcampaign", "--family", "mirror", "--n", "4", "--stripes",
             "4", "--seeds", "3", "--jobs", "2", "--json", "sweep.json",
             "--trace-out", "sweep-trace.jsonl", "--metrics-port", "0"),
        _cli("simulate", "rebuild", "--layout", "shifted-mirror", "--n", "5",
             "--stripes", "8", "--trace-out", "trace.json",
             "--metrics-out", "metrics.json", "--trace-sample", "0.5"),
        _cli("obs", "summary", "--metrics", "metrics.json", "--trace",
             "trace.json"),
        _cli("obs", "summary", "--trace", "sweep-trace.jsonl"),
    ]
    for throttle in _SERVE_THROTTLES:
        runs.append(_cli("serve", "--family", "mirror", "--n", "4",
                         "--stripes", "6", "--throttle", throttle))
    runs += [
        _cli("serve", "--family", "mirror-parity", "--n", "4", "--stripes",
             "6", "--process", "bursty", "--zipf", "1.1",
             "--diurnal-amplitude", "0.5", "--deadline-ms", "50",
             "--tenant", "video:30:bursty:1.2", "--tenant", "batch:10",
             "--json", "serve.json"),
        _cli("obs", "report", "serve.json", "--out", "serve.html"),
        (
            {},
            ["-c", "import json; d = json.load(open('serve.json')); "
                   "json.dump(d['shifted']['timeseries'], open('ts.json', 'w'))"],
        ),
        _cli("obs", "report", "ts.json", "--out", "ts.html"),
        _cli("nemesis", "--n", "4", "--stripes", "4", "--horizon-days", "2",
             "--checkpoint", "nemesis-ck.json", "--json", "nemesis.json"),
        _cli("nemesis", "--n", "4", "--stripes", "4", "--horizon-days", "2",
             "--checkpoint", "nemesis-ck.json"),
        _cli("nemesis", "--n", "4", "--stripes", "4", "--horizon-days", "1",
             "--verify-determinism", "--allow-excess", "--trace-out",
             "nemesis-trace.json"),
        _cli("leaderboard", "--n", "4", "--stripes", "4", "--jobs", "2",
             "--trace-out", "lb-trace.jsonl", "--json", "lb.json",
             "--html", "lb.html"),
        _cli("obs", "report", "lb.json", "--out", "lb-report.html"),
        _cli("--profile", "table1", "--n", "4"),
        _cli("--profile", "--profile-out", "table1.pstats", "table1", "--n",
             "4"),
        _cli("simulate", "rebuild", "--layout", "mirror", "--n", "4",
             "--stripes", "4", env={"REPRO_OBS": "0"}),
        _cli("serve", "--family", "mirror", "--n", "4", "--stripes", "6",
             "--json", "serve-off.json", env={"REPRO_OBS": "0"}),
        _cli("faultcampaign", "--family", "mirror", "--n", "4", "--stripes",
             "4", "--seeds", "2", "--jobs", "2", env={"REPRO_OBS": "0"}),
    ]
    examples = {
        "layout_explorer.py": ["3"],
        "capacity_planner.py": ["5"],
    }
    for script in sorted((REPO / "examples").glob("*.py")):
        runs.append(({}, [str(script), *examples.get(script.name, [])]))
    runs.append(({}, [
        "-m", "pytest", str(REPO / "benchmarks"),
        "--ignore", str(REPO / "benchmarks" / "e2e"),
        "--benchmark-disable", "-q", "-p", "no:cacheprovider",
    ]))
    return runs


# ----------------------------------------------------------------------
# recording (runs inside each child interpreter)
# ----------------------------------------------------------------------


def _record(out: str, argv: list[str]) -> None:
    """Run ``argv`` (``-m mod ...``, ``-c code`` or ``script ...``) and
    dump the called code locations to ``out`` (``out.<pid>`` from each
    worker process)."""
    import multiprocessing
    import multiprocessing.process
    import runpy
    import threading

    seen: dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code

    def dump(path: str) -> None:
        sys.setprofile(None)
        prefix = str(PACKAGE)
        hits = sorted({
            (c.co_filename, c.co_firstlineno)
            for c in seen.values()
            if c.co_filename.startswith(prefix)
        })
        with open(path, "w") as fh:
            json.dump(hits, fh)

    original = multiprocessing.process.BaseProcess._bootstrap

    def bootstrap(self, *args, **kwargs):
        seen.clear()
        sys.setprofile(hook)
        try:
            return original(self, *args, **kwargs)
        finally:
            dump(f"{out}.{os.getpid()}")

    # workers must inherit the patched bootstrap, so fork them
    multiprocessing.process.BaseProcess._bootstrap = bootstrap
    multiprocessing.set_start_method("fork", force=True)
    threading.setprofile(hook)
    sys.setprofile(hook)
    rc = 0
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "-c":
            exec(compile(argv[1], "<census>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        dump(out)
    sys.exit(rc)


def _run_all(workdir: Path) -> set[tuple[str, int]]:
    hits: set[tuple[str, int]] = set()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(REPO / "tools")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    runs = _runs()
    for k, (extra, argv) in enumerate(runs):
        out = workdir / f"hits-{k}.json"
        boot = f"import reach, sys; reach._record({str(out)!r}, sys.argv[1:])"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", boot, *argv],
            cwd=workdir,
            env={**env, **extra},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        label = " ".join(f"{k}={v}" for k, v in extra.items())
        label = f"{label} {' '.join(argv)}".strip()
        print(f"[{k + 1}/{len(runs)}] {time.perf_counter() - t0:5.1f}s "
              f"{label[:100]}", file=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"reach: run failed ({proc.returncode}): {label}")
        for path in workdir.glob(f"hits-{k}.json*"):
            hits.update(tuple(h) for h in json.loads(path.read_text()))
    return hits


# ----------------------------------------------------------------------
# the AST side
# ----------------------------------------------------------------------


def _not_implemented_only(node: ast.AST) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def functions() -> dict[str, tuple[str, int, list[str]]]:
    """``module:qualname`` -> (file, first line, enclosing function names)
    for every counted function under ``src/repro``."""
    found: dict[str, tuple[str, int, list[str]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, prefix: str, outer: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", outer)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    name = f"{module}:{qual}"
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    if not dunder and not _not_implemented_only(child):
                        first = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        found[name] = (str(path), first, outer)
                    walk(child, f"{qual}.", [*outer, name])
                else:
                    walk(child, prefix, outer)

        walk(tree, "", [])
    return found


def verdict(
    funcs: dict[str, tuple[str, int, list[str]]],
    hits: set[tuple[str, int]],
    allowlist: dict[str, str],
) -> tuple[list[str], list[str], list[str]]:
    """(unreached and not allowed, allowed but reached, allowed but gone)."""
    unreached = {
        name for name, (path, line, _) in funcs.items() if (path, line) not in hits
    }
    # a closure of an unreached function is reported through its parent
    top = sorted(
        name for name in unreached
        if not any(o in unreached for o in funcs[name][2])
    )
    missing = [n for n in top if n not in allowlist]
    reached = sorted(n for n in allowlist if n in funcs and n not in unreached)
    gone = sorted(n for n in allowlist if n not in funcs)
    return missing, reached, gone


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        hits = _run_all(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    funcs = functions()
    missing, reached, gone = verdict(funcs, hits, ALLOWLIST)
    n_hit = sum((path, line) in hits for path, line, _ in funcs.values())
    print(f"reach: {n_hit} of {len(funcs)} functions reached, "
          f"{len(ALLOWLIST)} allowlisted")
    for name in missing:
        print(f"unreached, not allowlisted: {name}")
    for name in reached:
        print(f"allowlisted but reached:    {name}")
    for name in gone:
        print(f"allowlisted but gone:       {name}")
    return 1 if missing or reached or gone else 0


if __name__ == "__main__":
    sys.exit(main())
