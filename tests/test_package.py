"""The package as a process meets it: what an import loads, what the lazy
facades resolve, and what the packaging metadata declares.

Every import check runs in a fresh interpreter, since one test process
has long since imported everything.  None reads a clock: what an import
costs in time is measured by ``benchmarks/bench_import.py``; here only
*which* modules load is held, over that bench's table of commands.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_SPEC = importlib.util.spec_from_file_location(
    "bench_import", ROOT / "benchmarks" / "bench_import.py"
)
bench_import = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_import)

#: command name -> the modules it must not load
FORBIDDEN = {name: forbidden for name, _, forbidden in bench_import.COMMANDS}

#: every package but ``repro.service.telemetry`` (which defines its
#: class): the facades, whose re-exports load on first use, and the
#: docstring-only packages, which export nothing
FACADES = (
    "repro",
    "repro.allocator",
    "repro.baselines",
    "repro.cluster",
    "repro.core",
    "repro.distributed",
    "repro.eval",
    "repro.framework",
    "repro.framework.layers",
    "repro.framework.optim",
    "repro.models",
    "repro.models.cnn",
    "repro.models.transformer",
    "repro.runtime",
    "repro.service",
    "repro.trace",
)

#: the most package modules a process that never profiles may load
NEVER_PROFILES_MODULES = 55
NEVER_PROFILES = (
    "from repro.service import ServiceGateway, SyntheticEstimator",
    "from repro.service import TcpServiceClient",
)

#: the e2e benchmark's golden peaks (read only): cell id -> peak bytes
GOLDEN_CELLS = json.loads(
    (ROOT / "benchmarks" / "e2e" / "golden.json").read_text()
)["cells"]


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter over ``src/``; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str, watched) -> list[str]:
    """Which of ``watched`` are in ``sys.modules`` once ``code`` ran."""
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(set({list(watched)!r}) & set(sys.modules))))"
    )
    return json.loads(fresh(code + report).splitlines()[-1])


# ----------------------------------------------------------------------
# what an import loads
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "code, forbidden",
    [(code, forbidden) for _, code, forbidden in bench_import.COMMANDS],
    ids=[name for name, _, _ in bench_import.COMMANDS],
)
def test_a_command_loads_none_of_what_it_does_not_run(code, forbidden):
    assert loaded_after(code, forbidden) == []


def test_an_estimate_from_the_cli_loads_what_the_cli_help_leaves_out():
    argv = ["estimate", "--model", "MobileNetV3Small", "--batch-size", "2",
            "--optimizer", "sgd", "--iterations", "2", "--json"]
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) in (0, None)\n"
    )
    assert loaded_after(code, FORBIDDEN["xmem --help"]) == []


@pytest.mark.parametrize("code", NEVER_PROFILES)
def test_a_process_that_never_profiles_loads_few_package_modules(code):
    report = (
        "\nimport sys\n"
        "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
    )
    assert int(fresh(code + report).splitlines()[-1]) <= NEVER_PROFILES_MODULES


def test_a_metrics_import_loads_none_of_the_experiment_drivers():
    """``repro.eval``'s facade is lazy: scoring outcomes (Eqs. 1-8) loads
    no baseline estimator, no training engine and no service module,
    which its runner and validation drivers would bring."""
    code = (
        "import sys\n"
        "import repro.eval.metrics\n"
        "print(' '.join(m for m in sys.modules if m == 'repro.runtime.engine'"
        " or m.startswith(('repro.baselines', 'repro.service'))))"
    )
    assert fresh(code).split() == []


def test_one_estimate_loads_the_cold_chain_and_answers_its_golden_peak():
    """The positive control of the rows above: the chain they keep out
    does load, with the first estimate, and answers the golden peak.  A
    CNN cell loads no transformer code."""
    code = f"""
import json, sys
from repro import XMemEstimator
from repro.workload import RTX_3060, WorkloadConfig

result = XMemEstimator(iterations=3, curve=False).estimate(
    WorkloadConfig("VGG16", "adam", 4), RTX_3060
)
loaded = sorted(set({bench_import.COLD_CHAIN!r}) & set(sys.modules))
print(json.dumps({{"peak": result.peak_bytes, "loaded": loaded}}))
"""
    report = json.loads(fresh(code).splitlines()[-1])
    assert report["peak"] == GOLDEN_CELLS["VGG16/adam/bs4"]
    transformer = "repro.models.transformer.decoder"
    assert report["loaded"] == sorted(set(bench_import.COLD_CHAIN) - {transformer})


def test_first_estimates_on_concurrent_worker_threads_import_the_chain_once():
    """Six distinct cold cells reach a 4-shard thread gateway at once, in
    a fresh interpreter: the profiler, the model zoo, the layers and the
    allocator are first imported by worker threads racing each other.
    Each answer must be its golden peak, and none may fail on a partly
    initialised module (a worker's error would surface as ``result()``'s
    exception and fail the child).  Four worker shards, more than a small
    runner has cores, and a short switch interval make the imports
    interleave."""
    cells = [
        ("VGG16", 4),
        ("VGG19", 8),
        ("distilgpt2", 16),
        ("Cerebras-GPT-111M", 32),
        ("ConvNeXtTiny", 8),
        ("t5-small", 4),
    ]
    built = [
        module
        for module in bench_import.COLD_CHAIN
        if module not in ("repro.core.analyzer", "repro.core.orchestrator")
    ]
    code = f"""
import json, sys
from functools import partial
from repro import XMemEstimator
from repro.service import ServiceGateway
from repro.workload import RTX_3060, WorkloadConfig

sys.setswitchinterval(1e-5)  # hand the lock over often, so imports interleave
gateway = ServiceGateway(
    num_shards=4,
    estimator_factory=partial(XMemEstimator, iterations=3, curve=False),
)
# the estimators hold an analyzer and an orchestrator; nothing else of
# the chain is loaded until a worker builds a stage
early = sorted(set({built!r}) & set(sys.modules))
futures = [
    gateway.submit(WorkloadConfig(model, "adam", batch_size), RTX_3060)
    for model, batch_size in {cells!r}
]
peaks = [future.result(timeout=60).peak_bytes for future in futures]
gateway.close()
print(json.dumps({{"early": early, "peaks": peaks}}))
"""
    report = json.loads(fresh(code).splitlines()[-1])
    assert report["early"] == []
    assert report["peaks"] == [
        GOLDEN_CELLS[f"{model}/adam/bs{batch_size}"] for model, batch_size in cells
    ]


# ----------------------------------------------------------------------
# the lazy facades
# ----------------------------------------------------------------------


@pytest.mark.parametrize("package", FACADES)
def test_every_export_resolves_once_to_its_defining_module(package):
    code = f"""
import importlib
facade = importlib.import_module({package!r})
for name in vars(facade).get("__all__", []):
    value = getattr(facade, name)
    assert name in vars(facade), name  # stored: resolved once
    if name in facade._EXPORTS:
        home = importlib.import_module(facade._EXPORTS[name], {package!r})
        assert getattr(home, name) is value, name
"""
    fresh(code)


@pytest.mark.parametrize("package", FACADES)
def test_dir_lists_every_export_before_any_resolves(package):
    code = f"""
import importlib
facade = importlib.import_module({package!r})
missing = set(vars(facade).get("__all__", [])) - set(dir(facade))
assert not missing, sorted(missing)
"""
    fresh(code)


@pytest.mark.parametrize("package", FACADES)
def test_an_unknown_name_is_an_attribute_error_naming_the_module(package):
    code = f"""
import importlib
facade = importlib.import_module({package!r})
try:
    facade.no_such_export
except AttributeError as error:
    assert {package!r} in str(error) and "no_such_export" in str(error), error
else:
    raise AssertionError("no AttributeError")
try:
    from {package} import no_such_export
except ImportError:
    pass
else:
    raise AssertionError("no ImportError")
"""
    fresh(code)


@pytest.mark.parametrize("package", FACADES)
def test_a_star_import_binds_exactly_all(package):
    """A docstring-only package has no ``__all__`` and binds nothing."""
    code = f"""
import importlib
namespace = {{}}
exec("from {package} import *", namespace)
namespace.pop("__builtins__")
facade = importlib.import_module({package!r})
assert set(namespace) == set(vars(facade).get("__all__", [])), sorted(namespace)
"""
    fresh(code)


# ----------------------------------------------------------------------
# packaging metadata
# ----------------------------------------------------------------------


def third_party_imports() -> set[str]:
    """Top-level modules ``src/`` imports anywhere, even inside a
    function, that are neither the standard library nor the package."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((node.module or "").split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_the_metadata_reads_the_version_and_declares_no_dependency():
    """One version (the package's ``__version__``); ``dependencies`` is
    empty because ``src/`` imports the standard library only, apart from
    what an optional extra declares."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = config["project"]
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "repro.__version__"}
    assert project["dependencies"] == []
    extras = project["optional-dependencies"].values()
    assert third_party_imports() == {name for names in extras for name in names}
