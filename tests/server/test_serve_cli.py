"""The ``python -m repro serve`` subcommand: flags, daemon, SIGTERM drain."""

import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import build_serve_parser, serve_config
from repro.asyncserver.supervisor import WorkerSupervisor
from repro.asyncserver.worker import ShardWorker
from repro.service.config import ServingConfig

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)
SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestServeParser:
    def test_defaults_are_the_configs(self):
        assert serve_config(build_serve_parser().parse_args([])) == ServingConfig()

    def test_flags(self):
        args = build_serve_parser().parse_args(
            ["--port", "0", "--strategy", "h2", "--factor", "1.1",
             "--max-inflight", "3", "--grace", "2.5", "--shards", "2",
             "--cache-dir", "snapshots", "--cache-size", "9", "--timeout", "4",
             "--band-width", "1", "--executor", "interpreter", "--workers", "1"]
        )
        assert serve_config(args) == ServingConfig(
            port=0, strategy="h2", factor=1.1, max_inflight=3,
            drain_grace_seconds=2.5, shards=2, cache_dir="snapshots",
            cache_capacity=9, request_timeout_seconds=4.0,
            snapshot_band_width=1.0, default_executor="interpreter",
        )

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--strategy", "magic"])

    @pytest.mark.parametrize(
        "flag", ["--data-dir", "--engine", "--no-cache", "--recost-bound"]
    )
    def test_deleted_flags_are_rejected(self, flag):
        # --dataset <dir> is the one spelling of a directory dataset, a
        # server never had the test oracle's engine, every shard serves
        # from its plan cache, and the re-cost bound is a constant.
        with pytest.raises(SystemExit) as exit_info:
            build_serve_parser().parse_args([flag, "x"])
        assert exit_info.value.code == 2


class TestOneConfig:
    """The front's :class:`ServingConfig` is what every shard boots from."""

    def test_the_config_reaches_the_shard_unchanged(self, tmp_path):
        config = ServingConfig(
            host="localhost", port=0, max_inflight=7, scale_factor=0.5,
            strategy="h2", factor=1.1, request_timeout_seconds=30.0,
            drain_grace_seconds=3.0, degradation="error", cache_capacity=9,
            snapshot_band_width=1.0, dataset="tpch-sf0.001",
            default_executor="interpreter", shards=3, cache_dir=str(tmp_path),
            revalidate_batch=2,
        )
        # Every field off its default (only "cout" is a registered cost
        # model), so a field that is lost on the way shows here.
        assert {
            field.name for field in dataclasses.fields(ServingConfig)
            if getattr(config, field.name) == field.default
        } == {"cost_model"}
        supervisor = WorkerSupervisor(config)
        assert supervisor.config == config
        worker = ShardWorker(supervisor.worker_config(2))
        assert worker.config == config
        assert worker.core.base_config == config.optimizer_config()
        assert worker.snapshot_path == config.shard_path(2)
        assert worker.snapshot_path.endswith("shard-002-of-003.plancache")

    def test_nan_timeout_is_an_error_not_a_server(self):
        # Accepted, every request's planning budget was NaN: 504s, then a
        # shard restart, then 503s.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--timeout", "nan"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: request_timeout_seconds must be > 0")
        assert proc.stdout == ""


@contextlib.contextmanager
def serving(*flags, stderr=subprocess.DEVNULL):
    """``python -m repro serve --port 0 <flags>`` as a child; yields ``(proc, url)``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner
        yield proc, banner.split("listening on ")[1].split()[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)


def call(url, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def drain(proc):
    """SIGTERM; the daemon must finish in-flight work and exit 0.
    Returns the rest of its stdout and (when piped) its stderr."""
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "drained cleanly" in out
    return out, err


class TestServeDaemon:
    def test_serve_healthz_optimize_sigterm_drain(self):
        """The CI smoke, as a test: start, probe, optimize, drain cleanly."""
        with serving() as (proc, url):
            assert call(url, "/healthz")["status"] == "ok"
            body = call(url, "/optimize", {"sql": SQL, "include_plan": False})
            assert body["cost"] > 0
            assert body["strategy"] == "ea-prune"
            drain(proc)

    def test_async_drain_snapshots_and_restart_serves_warm(self, tmp_path):
        """``serve --shards 2 --cache-dir``: a SIGTERM drain writes the
        shard snapshots, and a restart over the same directory answers its
        first request from them with the identical plan."""
        flags = ("--shards", "2", "--cache-dir", str(tmp_path))
        with serving(*flags) as (proc, url):
            cold = call(url, "/optimize", {"sql": SQL})
            assert cold["cache_hit"] is False
            explain_before = call(url, "/explain", {"sql": SQL})["explain"]
            assert "snapshotted" in drain(proc)[0]
        assert sorted(os.listdir(tmp_path)) == [
            "shard-000-of-002.plancache", "shard-001-of-002.plancache",
        ]

        with serving(*flags) as (proc, url):
            persistence = call(url, "/stats")["persistence"]
            assert persistence["loaded"] >= 1
            assert persistence["rejected"] == 0
            warm = call(url, "/optimize", {"sql": SQL})
            assert warm["cache_hit"] is True
            assert warm["plan"] == cold["plan"]
            assert call(url, "/explain", {"sql": SQL})["explain"] == explain_before
            drain(proc)


#: the note ``serve --workers N`` prints on stderr, never on stdout.
WORKERS_NOTE = "--workers is ignored; misses are planned in parallel across --shards"


class TestBenchmarkSpellings:
    """The two ``serve`` command lines of ``benchmarks/e2e/loadgen.py``,
    which the benchmark keeps passing: both boot the one serving tier."""

    @pytest.mark.parametrize(
        "flags, noted",
        [
            (("--cache-size", "8", "--workers", "1"), True),
            (("--cache-size", "8", "--async", "--shards", "1"), False),
        ],
        ids=["workers", "async-shards"],
    )
    def test_boots_answers_and_notes_workers_on_stderr_only(self, flags, noted):
        with serving(*flags, stderr=subprocess.PIPE) as (proc, url):
            assert call(url, "/healthz")["status"] == "ok"
            body = call(url, "/optimize", {"sql": SQL, "include_plan": False})
            assert body["cost"] > 0 and "shard" in body
            out, err = drain(proc)
        assert WORKERS_NOTE not in out
        assert (WORKERS_NOTE in err) is noted
