"""Tests for config content digests and the on-disk result cache."""

import dataclasses
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.experiments.config import CONFIG_SCHEMA_VERSION, paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario


def tiny(**overrides):
    defaults = dict(n_clients=2, duration=3.0, seed=1)
    defaults.update(overrides)
    return paper_config(**defaults)


def tiny_metrics(**overrides):
    return ScenarioMetrics.from_result(run_scenario(tiny(**overrides)))


class TestConfigDigest:
    def test_deterministic(self):
        assert tiny().config_digest() == tiny().config_digest()

    def test_hex_sha256_shape(self):
        digest = tiny().config_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_physics_fields_change_digest(self):
        base = tiny()
        for overrides in [
            dict(protocol="vegas"),
            dict(queue="red"),
            dict(n_clients=3),
            dict(seed=2),
            dict(duration=4.0),
            dict(bottleneck_rate_bps=1.5e6),
            dict(buffer_capacity=25),
            dict(pacing=True),
        ]:
            assert base.with_(**overrides).config_digest() != base.config_digest()

    def test_observation_only_fields_do_not_change_digest(self):
        base = tiny()
        traced = base.with_(obs_trace=("cwnd",))
        assert traced.config_digest() == base.config_digest()

    def test_payload_carries_schema_version(self):
        assert tiny().digest_payload()["schema_version"] == CONFIG_SCHEMA_VERSION

    def test_stable_across_processes(self):
        config = tiny(protocol="vegas", queue="red", mean_gap=0.07)
        code = (
            "from repro.experiments.config import paper_config;"
            "print(paper_config(n_clients=2, duration=3.0, seed=1,"
            " protocol='vegas', queue='red', mean_gap=0.07).config_digest())"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == config.config_digest()


class TestMetricsRoundTrip:
    def test_from_dict_inverts_as_dict(self):
        metrics = tiny_metrics(protocol="udp")
        assert ScenarioMetrics.from_dict(metrics.as_dict()) == metrics

    def test_from_dict_ignores_unknown_keys(self):
        record = tiny_metrics(protocol="udp").as_dict()
        record["future_field"] = 123
        assert ScenarioMetrics.from_dict(record).protocol == "udp"

    def test_from_dict_defaults_missing_error(self):
        record = tiny_metrics(protocol="udp").as_dict()
        del record["error"]  # record written before the field existed
        assert ScenarioMetrics.from_dict(record).error == ""

    def test_json_round_trip_preserves_nan(self):
        placeholder = ScenarioMetrics.failure(tiny(), "boom")
        restored = ScenarioMetrics.from_dict(
            json.loads(json.dumps(placeholder.as_dict()))
        )
        assert math.isnan(restored.cov)
        assert restored.error == "boom"
        assert restored.failed

    def test_failure_placeholder_keeps_identity(self):
        config = tiny(protocol="vegas", queue="red", n_clients=7)
        placeholder = ScenarioMetrics.failure(config, "timeout after 1s")
        assert placeholder.protocol == "vegas"
        assert placeholder.queue == "red"
        assert placeholder.n_clients == 7
        assert placeholder.label == config.label
        assert placeholder.failed

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(protocol="vegas", queue="red", n_clients=7),
            dict(backend="fluid", n_clients=100000, duration=50.0),
            dict(workload="rpc", seed=4),
        ],
        ids=["packet", "fluid", "rpc"],
    )
    def test_failure_placeholder_is_the_literal_it_replaced(self, overrides):
        """failure() reads its blanks off the field types; this is the
        field-by-field literal it replaced."""
        config = tiny(**overrides)
        nan = float("nan")
        literal = ScenarioMetrics(
            protocol=config.protocol,
            queue=config.queue,
            label=config.label,
            backend=config.backend,
            n_clients=config.n_clients,
            seed=config.seed,
            duration=config.duration,
            cov=nan,
            offered_cov=nan,
            analytic_cov=nan,
            throughput_packets=0,
            throughput_pps=nan,
            utilization=nan,
            loss_percent=nan,
            gateway_arrivals=0,
            gateway_drops=0,
            timeouts=0,
            fast_retransmits=0,
            dupacks=0,
            timeout_dupack_ratio=nan,
            timeout_fastrtx_ratio=nan,
            mean_queue_length=nan,
            red_marks=0,
            fairness=nan,
            mean_latency=nan,
            max_latency=nan,
            app_workload=config.workload if config.workload != "open" else "",
            error="boom",
        )
        placeholder = ScenarioMetrics.failure(config, "boom")
        # repr() spells NaN as nan, so equal reprs are equal values,
        # types and key order.
        assert repr(placeholder.as_dict()) == repr(literal.as_dict())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        config = tiny(protocol="udp")
        assert cache.get(config) is None
        metrics = tiny_metrics(protocol="udp")
        cache.put(config, metrics)
        assert cache.get(config) == metrics
        assert config in cache
        assert len(cache) == 1

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(tiny(), tiny_metrics())
        assert cache.get(tiny(seed=99)) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny()
        # Torn JSON, then valid JSON that is not an object.
        for body in ("{not json", "null", "[]", "3", '"x"'):
            cache.put(config, tiny_metrics())
            with open(cache.path_for(config), "w") as handle:
                handle.write(body)
            assert cache.get(config) is None, body

    def test_schema_version_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny()
        cache.put(config, tiny_metrics())
        path = cache.path_for(config)
        with open(path) as handle:
            payload = json.load(handle)
        payload["schema_version"] = CONFIG_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert cache.get(config) is None

    def test_failure_placeholder_never_served(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny()
        cache.put(config, ScenarioMetrics.failure(config, "boom"))
        assert cache.get(config) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(tiny(), tiny_metrics())
        cache.put(tiny(seed=2), tiny_metrics(seed=2))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_shared_across_instances(self, tmp_path):
        first = ResultCache(str(tmp_path))
        metrics = tiny_metrics()
        first.put(tiny(), metrics)
        second = ResultCache(str(tmp_path))
        assert second.get(tiny()) == metrics


GOLDEN_CACHE = pathlib.Path(__file__).parent / "goldens" / "cache"


def golden_entry():
    """A fixed (config, metrics) pair touching every kind of field an
    entry holds: NaN floats, app and forensic fields, telemetry."""
    config = tiny(
        protocol="vegas", queue="red", n_clients=3, duration=2.5, seed=7,
        workload="rpc", mean_gap=0.07, forensics=True,
    )
    metrics = dataclasses.replace(
        ScenarioMetrics.failure(config, ""),  # every float NaN to start
        cov=0.1 + 0.2,
        analytic_cov=1.0 / 3.0,
        throughput_packets=1234,
        throughput_pps=493.6,
        loss_percent=0.0,
        timeouts=2,
        measured_flows=3,
        app_units_issued=40,
        app_units_completed=39,
        app_latency_p99=0.0421875,
        perf_wall_time=0.0123,
        perf_engine="batch",
        perf_events_executed=4567,
        perf_peak_rss_kb=45056.0,
        forensic_bursts=2,
        forensic_burst_rate=0.8,
        forensic_top_flow=1,
    )
    return config, metrics


class TestEntryBytes:
    """The entry format is pinned to the byte: the file under
    ``goldens/cache/`` was written by ``ResultCache.put`` at the commit
    before put stopped going through ``json.dump`` and
    ``dataclasses.asdict``, and is not regenerated."""

    def test_put_writes_the_golden_bytes(self, tmp_path):
        config, metrics = golden_entry()
        assert CACHE_FORMAT_VERSION == 1 and CONFIG_SCHEMA_VERSION == 5
        path = pathlib.Path(ResultCache(str(tmp_path)).put(config, metrics))
        golden = GOLDEN_CACHE / path.name  # same digest, same file name
        assert path.read_bytes() == golden.read_bytes()

    def test_a_cache_written_before_is_a_hit(self, tmp_path):
        config, metrics = golden_entry()
        shutil.copytree(GOLDEN_CACHE, tmp_path / "cache")
        cache = ResultCache(str(tmp_path / "cache"))
        served = cache.get(config)
        assert served == metrics
        assert repr(served) == repr(metrics)  # wall-clock fields too
        # Written by a UDP cell on the batch engine, before UDP left its
        # envelope: the engine is digest-excluded, so it is still a hit,
        # and its numbers are the object engine's.
        udp = tiny(protocol="udp", seed=7)
        assert udp.resolved_engine() == "object"
        served = cache.get(udp)
        assert served is not None and served.perf_engine == "batch"
        assert served == tiny_metrics(protocol="udp", seed=7)
