"""Prometheus exposition edge cases and ephemeral-port serving.

Regression coverage for two live-endpoint hazards: non-finite sample
values must render as the case-sensitive exposition tokens (``NaN`` /
``+Inf`` / ``-Inf`` — Python's ``repr`` spellings are rejected by
Prometheus parsers), and two servers on ``port=0`` must coexist in one
process, each readable back through ``.port`` / ``.url``.
"""

from __future__ import annotations

import urllib.request

from repro.obs import MetricsRegistry, MetricsServer, prometheus_text


def test_non_finite_values_use_exposition_tokens():
    """Regression: a zero-sample NaN gauge used to render as Python's
    ``nan``, which a Prometheus scraper rejects, poisoning the whole
    exposition."""
    reg = MetricsRegistry()
    reg.gauge("serve.p99_s").set(float("nan"), agg="p99")
    reg.gauge("ratio.best").set(float("inf"))
    reg.gauge("ratio.worst").set(float("-inf"))
    text = prometheus_text(reg.snapshot())
    assert 'serve_p99_s{agg="p99"} NaN' in text
    assert "ratio_best +Inf" in text
    assert "ratio_worst -Inf" in text
    for bad_token in (" nan", " inf", " -inf", " Infinity"):
        assert bad_token not in text


def test_histogram_sum_of_inf_observations_renders_tokenized():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(1.0,))
    h.labels().observe(float("inf"))
    text = prometheus_text(reg.snapshot())
    assert "lat_sum +Inf" in text
    assert 'lat_bucket{le="+Inf"} 1' in text


def test_two_ephemeral_port_servers_coexist():
    reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
    reg_a.counter("who").inc(1, name="a")
    reg_b.counter("who").inc(1, name="b")
    with MetricsServer(port=0, registry_provider=lambda: reg_a) as a:
        with MetricsServer(port=0, registry_provider=lambda: reg_b) as b:
            assert a.port != b.port and a.port > 0 and b.port > 0
            body_a = urllib.request.urlopen(
                f"{a.url}/metrics", timeout=5
            ).read().decode()
            body_b = urllib.request.urlopen(
                f"{b.url}/metrics", timeout=5
            ).read().decode()
    assert 'who{name="a"}' in body_a and 'who{name="b"}' not in body_a
    assert 'who{name="b"}' in body_b and 'who{name="a"}' not in body_b


def test_url_is_both_property_and_callable():
    with MetricsServer(port=0) as srv:
        assert srv.url == f"http://127.0.0.1:{srv.port}"
        assert srv.url() == srv.url  # callable spelling, same string
        assert isinstance(srv.url(), str)
