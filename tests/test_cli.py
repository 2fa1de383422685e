"""CLI surface."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_BROKEN_PIPE, main
from repro.errors import ModelNotFoundError

SRC = Path(__file__).resolve().parent.parent / "src"


class TestEstimate:
    def test_human_output(self, capsys):
        code = main([
            "estimate", "--model", "MobileNetV3Small",
            "--batch-size", "32", "--optimizer", "sgd",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated peak" in out
        assert "GB" in out

    def test_json_output(self, capsys):
        code = main([
            "estimate", "--model", "MobileNetV3Small",
            "--batch-size", "32", "--optimizer", "sgd", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "MobileNetV3Small"
        assert payload["estimated_peak_bytes"] > 0

    def test_json_includes_role_breakdown(self, capsys):
        code = main([
            "estimate", "--model", "MobileNetV3Small",
            "--batch-size", "16", "--optimizer", "sgd", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        roles = payload["role_bytes"]
        assert roles["parameter"] > 0
        assert roles["gradient"] > 0
        assert payload["zero_grad_position"] == "pos1"

    def test_custom_capacity(self, capsys):
        code = main([
            "estimate", "--model", "MobileNetV3Small",
            "--batch-size", "32", "--optimizer", "sgd",
            "--capacity", "2GiB", "--json",
        ])
        assert code == 0

    def test_pos0_flag(self, capsys):
        code = main([
            "estimate", "--model", "MobileNetV3Small", "--batch-size", "16",
            "--zero-grad-position", "pos0", "--json",
        ])
        assert code == 0


class TestOtherCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt2" in out and "VGG16" in out and "Qwen3-4B" in out

    def test_trace_summary(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code = main([
            "trace", "--model", "MobileNetV3Small", "--batch-size", "8",
            "--optimizer", "sgd", "--iterations", "2",
            "--output", str(path),
        ])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "num_memory_events" in out

    def test_curve_prints_series(self, capsys):
        code = main([
            "curve", "--model", "MobileNetV3Small", "--batch-size", "8",
            "--optimizer", "sgd", "--points", "50",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) <= 51 + 10  # downsampled (peaks kept)
        ts, tensor, segment = lines[0].split("\t")
        assert int(segment) >= int(tensor)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_a_reader_that_stops_after_one_line_ends_it_quietly(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs a pipe whose capacity can be set (Linux)")
        read_end, write_end = os.pipe()
        # a one-page pipe: the ~40 KiB curve cannot fit before the reader
        # goes, so the command surely writes into a closed pipe
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        path = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "curve",
                "--model", "MobileNetV3Small", "--batch-size", "4",
                "--optimizer", "sgd", "--iterations", "2",
                "--points", "100000",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        os.close(write_end)
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(read_end, 1)
            assert chunk, "the command wrote no line"
            line += chunk
        os.close(read_end)
        _, stderr = child.communicate(timeout=120)
        assert len(line.split(b"\t")) == 3
        assert b"Traceback" not in stderr, stderr.decode()
        assert child.returncode == EXIT_BROKEN_PIPE == 141

    def test_other_errors_still_raise(self):
        with pytest.raises(ModelNotFoundError):
            main([
                "curve", "--model", "NoSuchModel", "--batch-size", "4",
                "--iterations", "1",
            ])

    def test_devices_table(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "rtx3060" in out and "GeForce RTX 3060" in out
        assert "job budget" in out

    def test_devices_json(self, capsys):
        assert main(["devices", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rtx3060"]["capacity_bytes"] == 12 * 2**30
        assert payload["a100"]["job_budget_bytes"] > 0


class TestServiceCommands:
    def test_batch_table(self, capsys):
        code = main([
            "batch", "--model", "MobileNetV3Small",
            "--batch-sizes", "8,16", "--devices", "rtx3060,rtx4060",
            "--optimizer", "sgd", "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MobileNetV3Small" in out
        assert "fits" in out or "OOM" in out
        assert "requests" in out

    def test_batch_json(self, capsys):
        code = main([
            "batch", "--model", "MobileNetV3Small",
            "--batch-sizes", "8", "--devices", "rtx3060",
            "--optimizer", "sgd", "--iterations", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (cell,) = payload["cells"]
        assert cell["workload"]["model"] == "MobileNetV3Small"
        assert cell["estimated_peak_bytes"] > 0
        assert payload["stats"]["service"]["requests"] == 1


#: a count option at 0 (or beyond what it counts), the option an error
#: must name, and the command around it
BAD_COUNTS = [
    (["loadtest", "--requests", "0"], "--requests"),
    (["loadtest", "--waves", "0"], "--waves"),
    (["loadtest", "--shards", "0"], "--shards"),
    (["loadtest", "--max-queue-depth", "0"], "--max-queue-depth"),
    (["loadtest", "--workers-per-shard", "0"], "--workers-per-shard"),
    (["loadtest", "--unique", "0"], "--unique"),
    (["loadtest", "--unique", "145"], "--unique"),  # the catalog has 144
    (["loadtest", "--driver", "processes", "--pool-workers", "0"], "--pool-workers"),
    # getaddrinfo wraps a port past 65535: 99999 dialled 34463
    (["loadtest", "--driver", "tcp", "--connect", "127.0.0.1:99999"], "--connect"),
    (["loadtest", "--driver", "tcp", "--connect", "127.0.0.1:0"], "--connect"),
    (["estimate", "--model", "VGG16", "--iterations", "0", "--batch-size", "4"],
     "--iterations"),
    (["estimate", "--model", "VGG16", "--batch-size", "0"], "--batch-size"),
    (["trace", "--model", "VGG16", "--batch-size", "0"], "--batch-size"),
    (["curve", "--model", "VGG16", "--batch-size", "4", "--points", "0"], "--points"),
    (["batch", "--model", "VGG16", "--batch-sizes", "4", "--workers", "0"],
     "--workers"),
    (["batch", "--model", "VGG16", "--batch-sizes", "4,0"], "--batch-sizes"),
    (["estimate", "--model", "VGG16", "--batch-size", "4", "--capacity", "0"],
     "--capacity"),
    (["estimate", "--model", "VGG16", "--batch-size", "4", "--capacity", "abc"],
     "--capacity"),
    # a size below the default framework reservation leaves no job budget
    (["estimate", "--model", "VGG16", "--batch-size", "4", "--capacity", "1MiB"],
     "--capacity"),
    (["curve", "--model", "VGG16", "--batch-size", "4", "--capacity", "0"],
     "--capacity"),
]


@pytest.mark.parametrize(
    "argv, option", BAD_COUNTS, ids=[" ".join(argv) for argv, _ in BAD_COUNTS]
)
def test_a_bad_count_is_a_usage_error_naming_its_option(argv, option, capsys):
    """Like loadtest's other bad inputs: exit 2 and one line naming the
    option, not a traceback out of the code the count reaches."""
    try:
        status = main(argv)
    except SystemExit as stop:  # argparse's own usage error
        status = stop.code
    err = capsys.readouterr().err
    assert status == 2
    assert option in err and "Traceback" not in err, err


class TestLoadtest:
    def test_human_output(self, capsys):
        code = main([
            "loadtest", "--scenario", "zipf", "--requests", "40",
            "--shards", "2", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'zipf': 40 requests" in out
        assert "cache hit rate" in out
        assert "routed per shard" in out

    def test_json_output_accounts_for_every_request(self, capsys):
        code = main([
            "loadtest", "--scenario", "adversarial", "--requests", "30",
            "--shards", "2", "--max-queue-depth", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "adversarial"
        assert (
            payload["answered"]
            + payload["shed"]
            + payload["rejected"]
            + payload["errors"]
            == 30
        )
        assert payload["rejected"] > 0
        assert payload["stats"]["gateway"]["num_shards"] == 2

    def test_real_pipeline_resolves_every_request_exactly_once(self, capsys):
        code = main([
            "loadtest", "--estimator", "xmem", "--scenario", "uniform",
            "--shards", "1", "--requests", "8", "--unique", "2",
            "--iterations", "2", "--waves", "2", "--seed", "1", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answered"] == 8
        service = payload["stats"]["aggregate"]
        assert service["requests"] == 8
        # every request resolves exactly once across the three paths
        assert (
            service["computed"]
            + service["cache_hits"]
            + service["deduplicated"]
            == 8
        )
        assert service["cache"]["size"] == service["computed"]

    def test_policy_and_scenario_choices_are_validated(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--scenario", "nope"])
        with pytest.raises(SystemExit):
            main(["loadtest", "--policy", "nope"])

    def test_least_loaded_policy_runs(self, capsys):
        code = main([
            "loadtest", "--scenario", "uniform", "--requests", "20",
            "--policy", "least_loaded", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answered"] == 20

    def test_asyncio_driver_runs(self, capsys):
        code = main([
            "loadtest", "--scenario", "zipf", "--requests", "30",
            "--shards", "2", "--driver", "asyncio", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answered"] == 30
        assert payload["errors"] == 0

    def test_multiple_drivers_print_comparison_table(self, capsys):
        code = main([
            "loadtest", "--scenario", "zipf", "--requests", "30",
            "--shards", "2", "--driver", "threads", "--driver", "asyncio",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'zipf':" in out
        assert "hit rate" in out and "p95 ms" in out and "shed" in out
        assert "threads" in out and "asyncio" in out

    def test_multiple_policies_json_lists_every_run(self, capsys):
        code = main([
            "loadtest", "--scenario", "uniform", "--requests", "20",
            "--shards", "2", "--policy", "hash", "--policy", "random",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert {run["policy"] for run in payload["runs"]} == {
            "hash", "random",
        }
        assert all(run["answered"] == 20 for run in payload["runs"])

    def test_connect_without_the_tcp_driver_is_a_usage_error(self, capsys):
        # was: silently replayed against a local thread gateway, exit 0
        code = main(["loadtest", "--requests", "20", "--connect", "127.0.0.1:1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --connect needs --driver tcp\n"
        assert captured.out == ""

    def test_malformed_connect_endpoint_is_a_usage_error(self, capsys):
        # was: ValueError traceback out of int("nohost")
        with pytest.raises(SystemExit) as stop:
            main(["loadtest", "--driver", "tcp", "--connect", "nohost"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "xmem loadtest: error: argument --connect: takes HOST:PORT "
            "with a port in 1-65535, got 'nohost'"
        )

    def test_a_server_that_refuses_is_one_error_line(self, capsys):
        # was: a 26-line ConnectionRefusedError traceback
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["loadtest", "--driver", "tcp", "--connect", f"127.0.0.1:{port}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: --connect 127.0.0.1:{port}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _mask_timings(text: str) -> str:
    """Blank what the clock decides; every other character is pinned."""
    import re

    text = re.sub(
        r"^(throughput|cache hit rate|latency p95)( +: ).*$", r"\1\2T",
        text, flags=re.MULTILINE,
    )
    return re.sub(r"p99 [0-9.]+ ms", "p99 T ms", text)


#: plain ``loadtest`` stdout captured at the commit before the faults /
#: resilience / per-tenant lines moved into telemetry/report.py
PLAIN_CHAOS = """\
scenario 'zipf': 120 requests (8 unique keys, 4 waves) over 4 shards [hash routing]
answered 120  shed 0  rejected 0  errors 0
throughput      : T
cache hit rate  : T
shed rate       : 0.0%
routed per shard: [55, 32, 15, 18]
latency p95     : T
faults injected : {'shard_blackout': 17} (seed 0, 1 planned)
resilience      : retries 17  reroutes 23  breaker opens 2  shed on drain 0
breaker states  : ['closed', 'closed', 'closed', 'closed']
"""
PLAIN_TENANTS = """\
scenario 'noisy-neighbor': 120 requests (92 unique keys, 4 waves) over 4 shards [hash routing]
answered 42  shed 78  rejected 0  errors 0
throughput      : T
cache hit rate  : T
shed rate       : 65.0%
routed per shard: [15, 2, 21, 4]
latency p95     : T
per-tenant      :
  hostile        submitted    90  answered    12  quota-shed   78  shed   78  rejected    0  p99 T ms
  well-behaved   submitted    30  answered    30  quota-shed    0  shed    0  rejected    0  p99 T ms
"""


class TestLoadtestReportText:
    def test_plain_chaos_report_is_byte_identical(self, capsys):
        assert main(["loadtest", "--chaos", "shard-kill", "--requests", "120"]) == 0
        assert _mask_timings(capsys.readouterr().out) == PLAIN_CHAOS

    def test_plain_tenant_report_is_byte_identical(self, capsys):
        code = main([
            "loadtest", "--scenario", "noisy-neighbor", "--requests", "120",
            "--seed", "2",
        ])
        assert code == 0
        assert _mask_timings(capsys.readouterr().out) == PLAIN_TENANTS

    def test_report_panel_shows_the_recovery_a_chaos_run_exists_for(self, capsys):
        code = main([
            "loadtest", "--chaos", "shard-kill", "--requests", "120", "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # the same three lines the plain report prints, from one helper
        for line in PLAIN_CHAOS.splitlines()[-3:]:
            assert line in out.splitlines()
