"""CLI front end: every subcommand through its happy path and errors."""

from __future__ import annotations

import json

import pytest

from repro.cli import LAYOUTS, build_layout, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_layout_registry_builds_everything():
    # n=5 satisfies every family (xcode needs a prime >= 5)
    for name in LAYOUTS:
        layout = build_layout(name, 5)
        assert layout.n == 5


def test_unknown_layout_exits():
    with pytest.raises(SystemExit, match="unknown layout"):
        build_layout("raid42", 4)


def test_arrange_shifted(capsys):
    rc, out = run_cli(capsys, "arrange", "--n", "3")
    assert rc == 0
    assert "P1=True P2=True P3=True" in out
    assert "1   4   7" in out


def test_arrange_identity(capsys):
    rc, out = run_cli(capsys, "arrange", "--n", "3", "--identity")
    assert rc == 0
    assert "P1=False" in out


def test_arrange_iterate_zero_is_the_identity(capsys):
    """T^0 is the identity arrangement, by design."""
    rc, out = run_cli(capsys, "arrange", "--n", "3", "--iterate", "0")
    assert rc == 0
    _, identity = run_cli(capsys, "arrange", "--n", "3", "--identity")
    assert out.splitlines()[1:] == identity.splitlines()[1:]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--n", "1"],
        ["faultcampaign", "--n", "1"],
        ["faultcampaign", "--n", "1", "--seeds", "2"],
        ["nemesis", "--n", "1"],
        ["serve", "--family", "rebuild-optimal", "--n", "0"],
    ],
    ids=" ".join,
)
def test_comparisons_reject_n_below_the_pair_floor(capsys, argv):
    """At n = 1 the shifted arrangement is the traditional one: a
    comparison there would set an arrangement against itself."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: --n must be at least 2")
    assert captured.out == ""


def test_arrange_iterate3_loses_p3(capsys):
    rc, out = run_cli(capsys, "arrange", "--n", "3", "--iterate", "3")
    assert "P3=False" in out


def test_table1(capsys):
    rc, out = run_cli(capsys, "table1", "--n", "5")
    assert rc == 0
    assert "Avg_Read = 20/11" in out


def test_plan_shifted_single_failure(capsys):
    rc, out = run_cli(capsys, "plan", "--layout", "shifted-mirror", "--n", "5",
                      "--failed", "0")
    assert rc == 0
    assert "parallel read accesses: 1" in out


def test_plan_verbose_lists_steps(capsys):
    rc, out = run_cli(capsys, "plan", "--layout", "mirror", "--n", "3",
                      "--failed", "1", "-v")
    assert "copy" in out
    assert "(1, 0) <-" in out


def test_write_plan_row(capsys):
    rc, out = run_cli(capsys, "write-plan", "--layout", "shifted-mirror-parity",
                      "--n", "4", "--row", "0")
    assert "write accesses: 1" in out
    assert "elements written: 9" in out


def test_write_plan_elements_reconstruct(capsys):
    rc, out = run_cli(capsys, "write-plan", "--layout", "mirror-parity",
                      "--n", "4", "--element", "0,0", "--strategy", "reconstruct")
    assert "(reconstruct)" in out
    assert "elements read: 3" in out


@pytest.mark.parametrize(
    "layout, args",
    [
        ("shifted-mirror", ["--element", "9,9"]),
        ("shifted-mirror", ["--row", "99"]),
        ("mirror", ["--element", "0,5"]),
        ("raid5", ["--element", "5,0"]),  # disk 5 is the parity disk
        ("raid5", ["--row", "5"]),
        ("xcode", ["--element", "5,0"]),
        ("xcode", ["--element", "0,3"]),  # rows 3 and 4 hold parity
        ("declustered-mirror", ["--element", "0,2", "0,9"]),
    ],
)
def test_write_plan_rejects_a_coordinate_outside_the_data_cells(
    capsys, layout, args
):
    rc = main(["write-plan", "--layout", layout, "--n", "5", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_write_plan_accepts_the_last_data_cell(capsys, layout):
    lay = build_layout(layout, 5)
    last = f"{lay.n - 1},{lay.data_rows - 1}"
    rc, out = run_cli(capsys, "write-plan", "--layout", layout, "--n", "5",
                      "--element", last)
    assert rc == 0
    assert "write accesses:" in out
    rc, out = run_cli(capsys, "write-plan", "--layout", layout, "--n", "5",
                      "--row", str(lay.data_rows - 1))
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["faultcampaign", "--n", "3", "--stripes", "4", "--seeds", "0"],
        ["faultcampaign", "--n", "3", "--stripes", "4", "--seeds", "-3"],
        ["simulate", "writes", "--layout", "mirror", "--n", "3",
         "--stripes", "4", "--ops", "-1"],
        ["simulate", "writes", "--layout", "mirror", "--n", "3",
         "--stripes", "4", "--ops", "0"],
    ],
)
def test_counts_below_one_are_rejected(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "must be at least 1" in captured.err
    assert captured.out == ""


def test_simulate_rebuild(capsys):
    rc, out = run_cli(capsys, "simulate", "rebuild", "--layout", "shifted-mirror",
                      "--n", "3", "--failed", "0", "--stripes", "4")
    assert rc == 0
    assert "content verified:   True" in out


def test_simulate_writes(capsys):
    rc, out = run_cli(capsys, "simulate", "writes", "--layout", "mirror",
                      "--n", "3", "--stripes", "4", "--ops", "10")
    assert rc == 0
    assert "redundancy intact: True" in out


@pytest.mark.parametrize(
    "layout, n", [("xcode", "5"), ("raid6-evenodd", "5"), ("raid6-evenodd", "7")]
)
def test_simulate_writes_stays_inside_fewer_data_rows_than_n(capsys, layout, n):
    # these stripes hold fewer than n data rows, so the ops must be drawn
    # over the layout's data rows, not over n
    rc, out = run_cli(capsys, "simulate", "writes", "--layout", layout,
                      "--n", n, "--stripes", "2", "--ops", "10")
    assert rc == 0
    assert "redundancy intact: True" in out


@pytest.mark.parametrize(
    "layout, n, failed", [("xcode", "5", ["0", "3"]), ("raid6-evenodd", "4", ["0", "1"])]
)
def test_simulate_rebuild_decodes_code_layouts(capsys, layout, n, failed):
    rc, out = run_cli(capsys, "simulate", "rebuild", "--layout", layout,
                      "--n", n, "--failed", *failed, "--stripes", "4")
    assert rc == 0
    assert "content verified:   True" in out


def test_experiments_only_table1(capsys):
    rc, out = run_cli(capsys, "experiments", "--quick", "--only", "table1")
    assert rc == 0
    assert "table1" in out
    assert "fig9a" not in out


def test_experiments_only_runs_just_the_selected_experiments(capsys, monkeypatch):
    from repro.experiments import fig9

    def unselected(*args, **kwargs):
        raise AssertionError("ran an experiment --only did not select")

    monkeypatch.setattr(fig9, "run_a", unselected)
    rc, out = run_cli(capsys, "experiments", "--quick", "--only", "fig8", "table1")
    assert rc == 0
    # paper order, whatever order --only names them in
    headers = [line for line in out.splitlines() if line.startswith("== ")]
    assert [h.split(":")[0] for h in headers] == ["== table1", "== fig8"]


@pytest.mark.parametrize("ids", [["tabel1"], ["table1", "nope"]])
def test_experiments_only_rejects_an_unknown_id(capsys, ids):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "--quick", "--only", *ids])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "invalid choice" in captured.err
    assert captured.out == ""


def test_experiments_help_lists_every_experiment_id(capsys):
    from repro.experiments.runner import EXPERIMENT_IDS

    with pytest.raises(SystemExit):
        main(["experiments", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "ext-lse" in EXPERIMENT_IDS and "ext-raid6" in EXPERIMENT_IDS
    for eid in EXPERIMENT_IDS:
        assert eid in out


def test_missing_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_reliability_command(capsys):
    rc, out = run_cli(capsys, "reliability", "--layout", "shifted-mirror",
                      "--n", "3", "--stripes", "6")
    assert rc == 0
    assert "MTTDL:" in out and "x)" in out


def test_scrub_command(capsys):
    rc, out = run_cli(capsys, "scrub", "--layout", "shifted-mirror-parity",
                      "--n", "3", "--stripes", "4", "--errors", "3")
    assert rc == 0
    assert "latent sector errors found:    3" in out
    assert "fully repaired" in out


def test_scrub_repairs_xcode_errors_on_many_columns(capsys):
    # the six errors sit on more columns than X-Code tolerates, yet its
    # chains determine every one of them
    rc, out = run_cli(capsys, "scrub", "--layout", "xcode", "--n", "5",
                      "--stripes", "4", "--errors", "6")
    assert rc == 0
    assert "repaired from redundancy:      6" in out
    assert "array is fully repaired" in out


def test_svg_command(capsys, tmp_path):
    rc, out = run_cli(capsys, "svg", "--outdir", str(tmp_path), "--quick")
    assert rc == 0
    assert out.count("wrote ") == 5


def test_faultcampaign_command(capsys):
    rc, out = run_cli(capsys, "faultcampaign", "--family", "mirror-parity",
                      "--n", "3", "--stripes", "4")
    assert rc == 0
    assert "Fault campaign (seed 2012) on mirror-parity at n=3:" in out
    assert "mirror-parity:" in out and "shifted-mirror-parity:" in out
    assert "availability delta (shifted - traditional):" in out
    assert "mid-rebuild failures:" in out


def test_faultcampaign_runs_on_the_layouts_it_sized_with(capsys, monkeypatch):
    """The campaign's controllers start from the templates the window
    sizing left: one cold build per layout, not two."""
    from repro.raidsim import controller

    real = controller._template
    misses = []

    def counting(layout, n_stripes, rotate, payload_bytes, film_seed):
        key = (n_stripes, rotate, payload_bytes, film_seed)
        if key not in layout._controller_templates:
            misses.append((layout.name, key))
        return real(layout, n_stripes, rotate, payload_bytes, film_seed)

    monkeypatch.setattr(controller, "_template", counting)
    rc, _ = run_cli(capsys, "faultcampaign", "--family", "mirror-parity",
                    "--n", "3", "--stripes", "4")
    assert rc == 0
    assert sorted(name for name, _ in misses) == [
        "mirror-parity", "shifted-mirror-parity"
    ]


def test_faultcampaign_without_second_failure(capsys):
    rc, out = run_cli(capsys, "faultcampaign", "--family", "mirror",
                      "--n", "3", "--stripes", "4", "--second-failure-at", "0")
    assert rc == 0
    assert "second failure" not in out
    assert "mid-rebuild failures" not in out


def test_faultcampaign_json_output(capsys, tmp_path):
    import json

    out_path = tmp_path / "campaign.json"
    rc, _ = run_cli(capsys, "faultcampaign", "--family", "mirror",
                    "--n", "3", "--stripes", "4", "--json", str(out_path))
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "faultcampaign"
    assert doc["family"] == "mirror" and doc["n"] == 3
    for side in ("traditional", "shifted"):
        record = doc[side]
        assert 0.0 <= record["availability"] <= 1.0
        assert record["rebuild"]["makespan_s"] > 0
        assert {"retries", "timeouts"} <= set(record["fault_stats"])
    assert isinstance(doc["availability_delta"], float)
    assert "counters" in doc["metrics"]


def test_simulate_rebuild_trace_and_metrics_out(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    rc, _ = run_cli(capsys, "simulate", "rebuild", "--layout", "shifted-mirror",
                    "--n", "3", "--failed", "0", "--stripes", "4",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path))
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert spans and any(
        e.get("args", {}).get("tag") == "rebuild" for e in spans
    )
    named = [e for e in trace["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert any("disk" in e["args"]["name"] for e in named)
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["sim.requests"]["values"]


def test_simulate_rebuild_streaming_trace_with_sampling(capsys, tmp_path):
    from repro.obs import load_streaming_trace

    trace_path = tmp_path / "trace.jsonl"
    rc, _ = run_cli(capsys, "simulate", "rebuild", "--layout", "shifted-mirror",
                    "--n", "3", "--failed", "0", "--stripes", "4",
                    "--trace-out", str(trace_path),
                    "--trace-sample", "0.0")
    assert rc == 0
    loaded = load_streaming_trace(trace_path)
    assert loaded.header["sample_rate"] == 0.0
    # per-request io spans are gone; the phase skeleton survives
    assert {ev.cat for ev in loaded.events} == {"rebuild"}
    assert any(ev.name == "rebuild.phase" for ev in loaded.events)


@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
def test_unwritable_export_path_fails_before_the_command_runs(
    capsys, tmp_path, flag
):
    target = tmp_path / "missing" / "out.json"
    rc = main(["simulate", "rebuild", "--layout", "mirror", "--n", "3",
               "--failed", "0", "--stripes", "4", flag, str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err
    assert captured.out == ""  # the command never ran
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [
    ["faultcampaign", "--family", "mirror", "--n", "3", "--stripes", "4",
     "--json", "{blocked}/x.json"],
    ["leaderboard", "--n", "3", "--stripes", "3", "--html", "{blocked}/x.html"],
    ["obs", "report", "{serve}", "--out", "{blocked}/x.html"],
    ["nemesis", "--n", "3", "--stripes", "3", "--horizon-days", "0.5",
     "--checkpoint", "{blocked}/ck.json"],
    ["svg", "--quick", "--outdir", "{blocked}/figures"],
    ["--profile", "--profile-out", "{blocked}/p.pstats", "table1", "--n", "3"],
])
def test_output_path_under_a_file_fails_before_the_command_runs(
    capsys, tmp_path, command
):
    blocked = tmp_path / "blocker"
    blocked.write_text("")
    serve = tmp_path / "serve.json"
    serve.write_text('{"series": {"lat": {}}, "window_s": 1.0}')
    argv = [a.format(blocked=blocked, serve=serve) for a in command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Not a directory" in captured.err
    assert captured.out == ""  # the command never ran


def test_profile_out_without_profile_is_not_checked(capsys, tmp_path):
    blocked = tmp_path / "blocker"
    blocked.write_text("")
    rc = main(["--profile-out", str(blocked / "p.pstats"), "table1", "--n", "3"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_second_failure_past_the_rebuild_is_rejected(capsys):
    rc = main(["faultcampaign", "--family", "mirror", "--n", "3", "--stripes",
               "4", "--second-failure-disk", "4", "--second-failure-at", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "at most 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["experiments", "--quick", "--only", "table1"],
    ["faultcampaign", "--family", "mirror", "--n", "3", "--stripes", "4",
     "--seeds", "2"],
    ["leaderboard", "--n", "3", "--stripes", "3"],
])
def test_negative_jobs_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--jobs", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --jobs" in captured.err
    assert captured.out == ""


def test_obs_summary_reads_streaming_traces(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    rc, _ = run_cli(capsys, "simulate", "rebuild", "--layout", "mirror",
                    "--n", "3", "--failed", "0", "--stripes", "4",
                    "--trace-out", str(trace_path),
                    "--trace-sample", "0.5")
    assert rc == 0
    rc, out = run_cli(capsys, "obs", "summary", "--trace", str(trace_path))
    assert rc == 0
    assert "busy time by track:" in out
    assert "sampled at rate 0.5" in out


def test_faultcampaign_with_live_metrics_port(capsys):
    import re
    import urllib.request

    # --metrics-port 0 picks a free port; the chosen one is announced
    # on stderr.  The endpoint outlives the command here only because
    # we scrape after dispatch in-process; mid-run scraping is covered
    # by the CI smoke job.
    import repro.cli as cli_mod

    captured_url = {}
    real_dispatch = cli_mod._dispatch

    def dispatch_and_scrape(args):
        rc = real_dispatch(args)
        err = capsys.readouterr().err
        m = re.search(r"serving live metrics on (\S+)/metrics", err)
        assert m, err
        body = urllib.request.urlopen(m.group(1) + "/metrics", timeout=5)
        captured_url["body"] = body.read().decode()
        return rc

    cli_mod._dispatch = dispatch_and_scrape
    try:
        rc = main(["faultcampaign", "--family", "mirror", "--n", "3",
                   "--stripes", "4", "--seeds", "2",
                   "--metrics-port", "0"])
    finally:
        cli_mod._dispatch = real_dispatch
    assert rc == 0
    body = captured_url["body"]
    assert "# TYPE sweep_points_completed counter" in body
    # the CLI serves the process-default registry, which other tests may
    # have touched — assert at least this run's two points landed
    completed = next(
        float(line.split()[-1]) for line in body.splitlines()
        if line.startswith("sweep_points_completed ")
    )
    assert completed >= 2.0


def test_obs_summary_command(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    rc, _ = run_cli(capsys, "simulate", "rebuild", "--layout", "mirror",
                    "--n", "3", "--failed", "0", "--stripes", "4",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path))
    assert rc == 0
    rc, out = run_cli(capsys, "obs", "summary", "--metrics", str(metrics_path),
                      "--trace", str(trace_path))
    assert rc == 0
    assert "counters:" in out
    assert "busy time by track:" in out
    rc, out = run_cli(capsys, "obs", "summary")
    assert rc == 0
    assert "nothing to summarize" in out


def test_obs_report_renders_a_serve_dashboard(capsys, tmp_path):
    json_path = tmp_path / "serve.json"
    html_path = tmp_path / "dash.html"
    rc, _ = run_cli(capsys, "serve", "--n", "4", "--stripes", "4",
                    "--rate", "25", "--seed", "11", "--json", str(json_path))
    assert rc == 0
    rc, out = run_cli(capsys, "obs", "report", str(json_path),
                      "--out", str(html_path), "--title", "smoke")
    assert rc == 0
    assert str(html_path) in out
    html = html_path.read_text()
    assert "<svg" in html and "smoke" in html
    assert "<h2>mirror</h2>" in html and "<h2>shifted-mirror</h2>" in html
    assert "disk-death" in html  # the fault overlay band made it in


@pytest.mark.parametrize(
    "doc",
    [
        {"series": {"lat": {}}, "window_s": 1.0},
        {"series": {"lat": {"name": "x", "labels": {}, "windows": [{}]}}, "window_s": 1.0},
        {"series": {"lat": {"name": "x", "labels": [], "windows": []}}, "window_s": 1.0},
        {"series": {"lat": {"name": "x", "labels": {}, "windows": []}}},
        {"series": [{"name": "x"}], "window_s": 1.0},
        [{"series": {}}],
    ],
    ids=["no-name", "bare-window", "list-labels", "no-window-width", "list-series", "list"],
)
def test_obs_report_rejects_a_malformed_timeseries_snapshot(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["obs", "report", str(bad), "--out", str(tmp_path / "x.html")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "x.html").exists()


def test_obs_report_rejects_a_non_report_document(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kind": "mystery"}')
    rc = main(["obs", "report", str(bogus), "--out", str(tmp_path / "x.html")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    # a missing input artifact is a domain error too, never a traceback
    rc = main(["obs", "report", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")


def test_domain_error_is_reported_not_raised(capsys):
    # a LayoutError inside a subcommand must become exit code 2 with a
    # one-line message on stderr, never a traceback
    rc = main(["plan", "--layout", "mirror-parity", "--n", "1",
               "--failed", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "needs n >= 2" in captured.err


def test_faultcampaign_rejects_bad_rate_gracefully(capsys):
    rc = main(["faultcampaign", "--family", "mirror", "--n", "3",
               "--stripes", "4", "--transient-rate", "1.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "transient rate" in captured.err


@pytest.mark.parametrize("command", [
    ["faultcampaign", "--family", "mirror", "--n", "3", "--stripes", "4"],
    ["leaderboard", "--n", "3", "--stripes", "3"],
])
def test_negative_lse_burst_is_rejected(capsys, command):
    rc = main([*command, "--lse-burst", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "LSE burst" in captured.err
    assert captured.out == ""


def test_serve_command(capsys):
    rc, out = run_cli(capsys, "serve", "--n", "4", "--stripes", "4",
                      "--rate", "25", "--seed", "11", "--deadline-ms", "200")
    assert rc == 0
    assert "Open-loop serve (seed 11) on mirror at n=4:" in out
    assert "mirror:" in out and "shifted-mirror:" in out
    assert "latency p50/p99/p999:" in out
    assert "goodput:" in out
    assert "deadline misses:" in out
    assert "p99 ratio (trad/shifted):" in out
    assert "rebuild speedup:" in out


def test_serve_json_output(capsys, tmp_path):
    import json
    import math

    out_path = tmp_path / "serve.json"
    rc, _ = run_cli(capsys, "serve", "--n", "4", "--stripes", "4",
                    "--rate", "25", "--seed", "11", "--throttle", "token:20",
                    "--json", str(out_path))
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "serve"
    assert doc["throttle"] == "token:20"
    for side in ("traditional", "shifted"):
        slo = doc[side]["slo"]
        assert slo["served"] > 0
        for q in ("p50_s", "p99_s", "p999_s"):
            assert slo[q] is not None and math.isfinite(slo[q])
        assert doc[side]["rebuild_makespan_s"] > 0
    assert "counters" in doc["metrics"]


def test_serve_multi_tenant_and_bad_specs(capsys):
    rc, out = run_cli(capsys, "serve", "--n", "4", "--stripes", "4", "--seed", "3",
                      "--tenant", "vod:20:poisson:1.1", "--tenant", "batch:5:bursty")
    assert rc == 0
    assert "per tenant:" in out and "vod=" in out and "batch=" in out
    rc, _ = run_cli(capsys, "serve", "--n", "4", "--tenant", "broken")
    assert rc == 2
    rc, _ = run_cli(capsys, "serve", "--n", "4", "--throttle", "warp:9")
    assert rc == 2


def test_latency_speedup_inf_and_nan_contract(capsys, tmp_path, monkeypatch):
    """One contract, two renderings: text prints bare inf/nan, JSON nulls."""
    import dataclasses
    import json

    import repro.raidsim.campaign as campaign_mod

    real = campaign_mod.compare_arrangements

    def rig(mean):
        def rigged(*args, **kw):
            cmp_ = real(*args, **kw)
            online = dataclasses.replace(
                cmp_.shifted.online, mean_user_latency_s=mean
            )
            shifted = dataclasses.replace(cmp_.shifted, online=online)
            return dataclasses.replace(cmp_, shifted=shifted)
        return rigged

    for mean, text in ((0.0, "inf"), (float("nan"), "nan")):
        monkeypatch.setattr(campaign_mod, "compare_arrangements", rig(mean))
        out_path = tmp_path / f"c-{text}.json"
        rc, out = run_cli(capsys, "faultcampaign", "--family", "mirror",
                          "--n", "3", "--stripes", "4",
                          "--second-failure-at", "0", "--json", str(out_path))
        assert rc == 0
        assert f"user latency speedup:  {text}" in out
        assert json.loads(out_path.read_text())["latency_speedup"] is None


def test_faultcampaign_runs_competitor_family(capsys):
    """The registry-declared pair mechanism: a family whose variant is
    not named shifted-* runs everywhere a comparison runs."""
    rc, out = run_cli(capsys, "faultcampaign", "--family", "declustered",
                      "--n", "3", "--stripes", "4", "--second-failure-at", "0")
    assert rc == 0
    assert "declustered-mirror:" in out


def test_faultcampaign_sweep_competitor_family(capsys):
    rc, out = run_cli(capsys, "faultcampaign", "--family", "rebuild-optimal",
                      "--n", "3", "--stripes", "3", "--seeds", "2")
    assert rc == 0
    assert "Fault-campaign sweep on rebuild-optimal at n=3" in out


def test_unpaired_family_rejected_at_parse_time(capsys):
    """The fail-before guard: raid5 is a layout but not a family."""
    with pytest.raises(SystemExit):
        main(["faultcampaign", "--family", "raid5", "--n", "3"])
    err = capsys.readouterr().err
    assert "invalid choice: 'raid5'" in err
    assert "declustered" in err and "rebuild-optimal" in err


def test_leaderboard_command(capsys):
    rc, out = run_cli(capsys, "leaderboard", "--n", "3", "--stripes", "3",
                      "--seed", "7")
    assert rc == 0
    assert "Layout leaderboard (seed 7) at n=3:" in out
    for name in ("mirror", "shifted-mirror", "declustered-mirror",
                 "rebuild-optimal-rdp"):
        assert name in out
    assert "best: " in out


def test_leaderboard_json_schema_and_determinism(capsys, tmp_path):
    import json

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, jobs in zip(paths, ("1", "2")):
        rc, _ = run_cli(capsys, "leaderboard", "--n", "3", "--stripes", "3",
                        "--seed", "7", "--jobs", jobs, "--json", str(path))
        assert rc == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    assert a["kind"] == "leaderboard"
    assert len(a["ranking"]) >= 4
    assert a["ranking"] == [e["layout"] for e in a["entries"]]
    for e in a["entries"]:
        assert 0.0 <= e["availability"] <= 1.0
        assert e["rebuild_makespan_s"] > 0
        # the _finite contract: p99 is a float or null, never NaN
        assert e["degraded_p99_ms"] is None or isinstance(
            e["degraded_p99_ms"], float
        )
    # bit-reproducible across runs and jobs counts
    assert a["ranking"] == b["ranking"]
    assert a["entries"] == b["entries"]
    assert a["duration_s"] == b["duration_s"]


def test_leaderboard_html_dashboard(capsys, tmp_path):
    html_path = tmp_path / "lb.html"
    rc, _ = run_cli(capsys, "leaderboard", "--n", "3", "--stripes", "3",
                    "--layouts", "mirror", "shifted-mirror",
                    "declustered-mirror", "rebuild-optimal-rdp",
                    "--html", str(html_path))
    assert rc == 0
    html = html_path.read_text()
    assert "Layout leaderboard" in html
    assert "declustered-mirror" in html
    assert 'table class="scalars"' in html


def test_obs_report_renders_leaderboard_json(capsys, tmp_path):
    json_path = tmp_path / "lb.json"
    out_path = tmp_path / "lb.html"
    rc, _ = run_cli(capsys, "leaderboard", "--n", "3", "--stripes", "3",
                    "--layouts", "mirror", "declustered-mirror",
                    "--json", str(json_path))
    assert rc == 0
    rc, out = run_cli(capsys, "obs", "report", str(json_path),
                      "--out", str(out_path))
    assert rc == 0
    assert "wrote dashboard report" in out
    assert "declustered-mirror" in out_path.read_text()


def test_obs_report_renders_serve_json_with_an_older_bucket_layout(
    capsys, tmp_path, monkeypatch
):
    """Serve JSON exported under the former 16-bound recorder layout
    still renders, with quantiles taken over the file's own bounds."""
    import json

    import repro.obs.report as report

    old_bounds = [
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
    ]
    counts = [0] * 17
    counts[3] = 100  # 100 reads in (2.5 ms, 5 ms]
    counts[10] = 1  # one 1 s straggler
    window = {"w": 0, "count": 101, "sum": 1.4, "min": 0.003, "max": 1.0,
              "counts": counts}
    record = {
        "layout": "mirror",
        "rebuild_makespan_s": 1.0,
        "availability": 1.0,
        "slo": {"served": 101, "p50_s": 0.004, "p99_s": 0.005},
        "timeseries": {
            "schema": 1,
            "window_s": 0.1,
            "horizon": 4096,
            "buckets": old_bounds,
            "series": {
                "serve.latency_s|tenant=all": {
                    "name": "serve.latency_s",
                    "help": "",
                    "labels": {"tenant": "all"},
                    "windows": [window],
                }
            },
        },
        "overlays": [],
    }
    json_path = tmp_path / "old-serve.json"
    json_path.write_text(json.dumps({"kind": "serve", "traditional": record}))
    seen = []

    def spy(dist, q, bounds):
        value = real(dist, q, bounds)
        seen.append((list(bounds), value))
        return value

    real = report.bucket_quantile
    monkeypatch.setattr(report, "bucket_quantile", spy)
    html_path = tmp_path / "old.html"
    rc, _ = run_cli(capsys, "obs", "report", str(json_path), "--out", str(html_path))
    assert rc == 0
    assert "<svg" in html_path.read_text()
    # rank 0.99 * 101 falls in the file's 5 ms bucket
    assert seen == [(old_bounds, 0.005)]
