"""Process start: what six ways into the package cost, and what they load.

Every CLI call, every spawned worker and every benchmark child pays for
its imports before it does any work.  The package facades resolve their
re-exports on first use, so each of these loads only what it runs:

* ``from repro import XMemEstimator`` — the estimator, no service plane
  and none of the cold chain (``COLD_CHAIN``: runtime, model zoo, layers,
  analyzer, orchestrator, caching allocator, trace builder), which loads
  with the first estimate;
* ``import repro.service`` — the facade alone, no driver;
* ``xmem --help`` — the CLI's parser, no event loop;
* ``import repro.workload`` — the workload and device records, no
  runtime;
* a gateway over the synthetic estimator, and a TCP client — the service
  plane, none of the cold chain: neither ever profiles.

Each command runs in ``RUNS`` fresh interpreters (9; ``--smoke`` 3),
the commands taken in turn so that drift in the machine's load meets
all of them alike, after one warm-up run each so that bytecode is
compiled.  The report gives two medians: ``process_ms``, a whole child
process from spawn to exit (interpreter start included: what a caller
waits), and ``command_ms``, the command alone, timed inside the child;
the largest max RSS of any run; and ``repro_modules``, how many of the
package's modules the command loaded.  The bench asserts which modules
each command leaves unloaded, never a time::

    PYTHONPATH=src python benchmarks/bench_import.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: timed rounds of the full run and of ``--smoke``
RUNS = 9
SMOKE_RUNS = 3

#: the child's clock around the command, and its report: the command's
#: time, which of the watched modules it loaded, how many of the
#: package's modules it loaded and its peak resident set
_START = "import time as _time\n_start = _time.perf_counter()\n"
_REPORT = """
_command_ms = (_time.perf_counter() - _start) * 1000.0
import json, resource, sys
print(json.dumps({
    "command_ms": _command_ms,
    "loaded": sorted(set(%r) & set(sys.modules)),
    "repro_modules": sum(m == "repro" or m.startswith("repro.") for m in sys.modules),
    "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""

_CLI_HELP = """
import contextlib, io, runpy, sys
sys.argv = ["xmem", "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro.cli", run_name="__main__")
    except SystemExit:
        pass
"""

#: the stage code that only a profiling estimate runs
COLD_CHAIN = (
    "repro.runtime.engine",
    "repro.runtime.profiler",
    "repro.models.cnn",
    "repro.models.transformer.decoder",
    "repro.framework.layers",
    "repro.core.analyzer",
    "repro.core.orchestrator",
    "repro.allocator.caching",
    "repro.trace.builder",
)

#: (name, code, modules it must not load); ``tests/test_package.py``
#: holds the same rules clock-free over this table
COMMANDS = (
    (
        "from repro import XMemEstimator",
        "from repro import XMemEstimator",
        (
            "repro.service",
            "asyncio",
            "socket",
            "multiprocessing",
            "sqlite3",
            "numpy",
            *COLD_CHAIN,
        ),
    ),
    ("import repro.service", "import repro.service", ("multiprocessing", "numpy")),
    ("import repro.workload", "import repro.workload", ("repro.runtime",)),
    ("xmem --help", _CLI_HELP, ("asyncio", "numpy")),
    (
        "from repro.service import ServiceGateway, SyntheticEstimator",
        "from repro.service import ServiceGateway, SyntheticEstimator",
        COLD_CHAIN,
    ),
    (
        "from repro.service import TcpServiceClient",
        "from repro.service import TcpServiceClient",
        COLD_CHAIN,
    ),
)


def run_once(code: str, forbidden) -> dict:
    """One fresh interpreter: its times, peak RSS and loaded set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _START + code + _REPORT % (tuple(forbidden),)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    process_ms = (time.perf_counter() - start) * 1000.0
    return {"process_ms": process_ms, **json.loads(done.stdout.splitlines()[-1])}


def run_import_bench(runs: int) -> dict:
    samples: dict[str, list[dict]] = {name: [] for name, _, _ in COMMANDS}
    for _ in range(runs + 1):  # the first round warms the bytecode
        for name, code, forbidden in COMMANDS:
            samples[name].append(run_once(code, forbidden))
    report = {}
    for name, code, forbidden in COMMANDS:
        timed = samples[name][1:]
        loaded = sorted({module for run in samples[name] for module in run["loaded"]})
        assert not loaded, f"{name} loaded {loaded}"
        report[name] = {
            "runs": len(timed),
            **{
                key: round(statistics.median(run[key] for run in timed), 1)
                for key in ("process_ms", "command_ms")
            },
            "max_rss_mib": round(max(run["max_rss_mib"] for run in timed), 1),
            "repro_modules": max(run["repro_modules"] for run in timed),
            "not_loaded": list(forbidden),
        }
    return report


def test_process_start():
    """Under pytest: the smoke size; the module assertions are the test."""
    run_import_bench(SMOKE_RUNS)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_RUNS} rounds")
    args = parser.parse_args()
    print(json.dumps(run_import_bench(SMOKE_RUNS if args.smoke else RUNS), indent=2))
