"""Structural guards on ``src/repro/service`` (AST only; the two
behavioural pins at the bottom are the only tests that import the package).

"Policy lives once, in the sans-IO core; a driver is only the code that
cannot be shared" is a property of the source tree, so it is checked on
the source tree: the gateway lifecycle, the service request lifecycle and
the two halves of the TCP protocol each exist in exactly one module, the
core modules import no concurrency substrate, the driver modules make no
gateway-layer decision, no service-core step and no use of a frame's
contents themselves, and the middleware chain carries policy only — a
request's outcome is observed once, in ``ServiceDispatch._emit``.  The
package's
public surface is checked the same way: ``repro.service`` re-exports
exactly the names its callers outside ``tests/`` import from it.

Run as a script to print per-module code-line counts (non-blank,
non-comment, non-docstring), the ``tcp.py + wire.py`` sum, the
``dispatch.py + core.py`` sum, the resilience plane's
``dispatch.py + resilience.py + faults.py`` sum and the
``cli.py + service/`` sum — CI prints the table next to the benchmark
trends::

    python tests/test_service_structure.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERVICE = ROOT / "src" / "repro" / "service"
CLI = ROOT / "src" / "repro" / "cli.py"
#: a fenced Python block of a Markdown file
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

#: the gateway's dispatch machine: each is written once
LIFECYCLE = (
    "_submit_resilient",
    "_begin_attempt",
    "_resilient_dispatched",
    "_attempt_outcome",
    "_fire_retry",
    "_shed_parked_retry",
    "_settle_outer",
    "_attempt",
    "_record_breaker",
    "_settle",
    "_gateway_decision",
    "_sync_resilience",
    "_ResilientCall",
)
#: per-driver copies that must not come back
RETIRED = (
    "_AsyncResilientCall",
    "_sync_resilience_locked",
    "_schedule_retry",
    "_dispatch",
    "_finish_attempt",
    # hedged dispatch: a resilient call has one attempt in flight
    "_maybe_schedule_hedge",
    "_fire_hedge",
    "_cancel_timers",
    # warm-up replicas: a request goes to the one shard its policy picks
    "_replicate",
)
#: one service's request lifecycle: written once, in ServiceDispatch
SERVICE_LIFECYCLE = (
    "submit",
    "stats",
    "fingerprint",
    "_estimate",
    "_on_done",
    "_resolve",
)
#: the per-driver completion paths / future plumbing that must not come back
SERVICE_RETIRED = ("_run", "_redispatch", "_chain_future")
SERVICE_DRIVERS = ("engine", "aio", "procpool")
#: request steps only the machine may sequence (a driver ledgers its own
#: substrate decision through ``_record_decision``)
SERVICE_STEPS = {
    "_open_request",
    "_piggyback",
    "_run_request_hooks",
    "_finish",
    "_emit",
}
#: the service-side core ServiceDispatch absorbed: one class per request
SERVICE_CORE_RETIRED = (
    "ServiceCore",
    "SingleFlight",
    "Admission",
    "compute_fingerprint",
    "adopt_chain_cache",
)
#: code lines of the two dispatch machines and the gateway core
CORE_BUDGET = 1110
#: the client side of the wire: written once, in wire.ClientProtocol
CLIENT_LIFECYCLE = (
    "request",
    "estimate_request",
    "estimate_many_request",
    "stats_request",
    "ping_request",
    "drain_request",
    "send_failed",
    "receive",
    "connection_ended",
    "reconnected",
    "_outcome",
    "_deliver",
)
#: the twin clients' copies of it that must not come back in tcp.py
CLIENT_RETIRED = (
    "_handle_response",
    "_fail_pending",
    "_send_once",
    "_estimate_message",
    "_settle_response",
)
CLIENT_SHELLS = ("TcpServiceClient",)
#: the server side of the wire: written once, in wire.ServerProtocol (it
#: shares the names ``receive`` / ``connection_ended`` with the client)
SERVER_LIFECYCLE = (
    "_serve",
    "_begin_estimate",
    "_estimate_many",
    "_answer",
    "_stop_reading",
    "_decode_estimate_payload",
    "_estimate_response",
    "_settled",
)
#: the server's coroutines that decided those things in tcp.py
SERVER_RETIRED = (
    "_handle_message",
    "_begin_estimate",
    "_await_and_respond",
    "_await_many_and_respond",
    "_drain_and_respond",
    "_decode_estimate_payload",
    "_handle_connection",
)
#: the server's shells: the loop thread and listener, and one
#: ``asyncio.Protocol`` per connection (no stream pair, no read task)
SERVER_SHELLS = ("TcpServerThread", "_Connection")
#: the shells folded away: the awaitable client (asyncio callers use the
#: loop gateway in-process) and the server the thread harness wrapped
SHELLS_RETIRED = ("AsyncTcpServiceClient", "TcpEstimationServer")
#: code lines of both halves of the protocol and their shells: 888
#: before the codec memos (one pass per distinct frame), which took 102
TCP_BUDGET = 990
#: what the wire's classes are built from, as before the codec memos:
#: their one bound is the module constant ``MEMO_ENTRIES``, not a knob
WIRE_CONSTRUCTORS = {
    ("wire.py", "ClientProtocol"): ["lock", "new_future", "clock"],
    ("wire.py", "ServerProtocol"): [
        "gateway",
        "clock",
        "write",
        "close",
        "abort",
        "drain",
    ],
    ("tcp.py", "TcpServiceClient"): [
        "host",
        "port",
        "timeout",
        "clock",
        "reconnect",
    ],
    ("tcp.py", "TcpServerThread"): ["gateway_factory", "host", "port", "clock"],
}
#: what a shell would need in order to look inside a frame
FRAME_CODEC = {
    "FrameDecoder",
    "encode_frame",
    "error_from_wire",
    "error_response",
    "ok_response",
    "result_from_wire",
    "result_to_wire",
    "validate_request_message",
    "OP_PING",
    "OP_ESTIMATE",
    "OP_ESTIMATE_MANY",
    "OP_STATS",
    "OP_DRAIN",
}
#: what picking a driver takes: named in service/loadtest.py, not by callers
DRIVER_WIRING = {
    "ServiceGateway",
    "AsyncServiceGateway",
    "ProcServiceGateway",
    "TcpServerThread",
    "TcpServiceClient",
    "replay_async",
}
#: observation adapters that lived in the policy layer: gone, stay gone
MIDDLEWARE_RETIRED = ("TimingMiddleware", "AuditLogMiddleware")
#: the service layer's own way to share a CPU profile: the estimator's
#: stage cache is the one way, so these stay gone
PROFILE_SHARING_RETIRED = (
    "profile_workload",
    "plan_shared_traces",
    "estimator_accepts_trace",
    "accepts_trace",
)
#: what a service module must not import: a profile is the estimator's
PROFILE_PACKAGES = ("repro.trace", "repro.runtime")
#: the late ways to attach an artifact store: a store is attached where
#: the estimator or its cache is built, so these stay gone
STORE_ATTACH_RETIRED = ("with_artifact_store", "attach_artifact_store")
#: broadcast warm-up and the result-cache TTL: one shard per request, and
#: LRU eviction the one way out of the cache
ONE_SHARD_RETIRED = (
    "BroadcastWarmupRouting",
    "admit_replica",
    "_reap_expired_locked",
    "WARMUP",
)
#: RequestContext's wire form (a context never leaves its process) and
#: its copy of the request's metadata bag
CONTEXT_RETIRED = (
    "as_dict",
    "from_dict",
    "remaining",
    "shard_hint",
    "metadata",
)
#: ServiceRequest's dict form: the pool pickles the request itself
REQUEST_RETIRED = ("as_dict", "from_dict")
SANS_IO = (
    "context",
    "routing",
    "core",
    "control",
    "resilience",
    "faults",
    "dispatch",
    "wire",
)
DRIVERS = ("gateway", "aio")
#: ResilienceCore / FaultInjector decisions and the ledger's write call
DECISIONS = {
    "record",
    "tick",
    "choose_shard",
    "retry_target",
    "record_outcome",
    "should_retry",
    "spend_retry",
    "sync",
    "next_index",
    "directive_for",
    "peek_window",
}


def modules() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(SERVICE)): ast.parse(path.read_text())
        for path in sorted(SERVICE.rglob("*.py"))
    }


def defined_names(tree: ast.Module) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


def bound_names(tree: ast.Module) -> set[str]:
    """Defined names plus every plainly assigned one (constants)."""
    assigned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            assigned.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            assigned.add(node.target.id)
    return defined_names(tree) | assigned


def imported_roots(tree: ast.Module) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add((node.module or "").split(".")[0])
    return roots


def called_attributes(tree: ast.AST) -> set[str]:
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def code_lines(path: Path) -> int:
    """Lines holding code: not blank, not comment, not docstring."""
    source = path.read_text()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skipped = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_the_dispatch_lifecycle_is_written_once():
    homes = {name: [] for name in LIFECYCLE + RETIRED}
    for module, tree in modules().items():
        for name in defined_names(tree) & homes.keys():
            homes[name].append(module)
    assert {name: homes[name] for name in LIFECYCLE} == {
        name: ["dispatch.py"] for name in LIFECYCLE
    }
    assert {name: homes[name] for name in RETIRED} == {
        name: [] for name in RETIRED
    }


def test_a_request_has_one_shard_and_the_cache_one_way_out():
    """Broadcast warm-up and the cache TTL stay gone, constants included
    (``ledger.WARMUP`` is an assignment, not a definition)."""
    copies = {
        module: sorted(bound_names(tree) & set(ONE_SHARD_RETIRED))
        for module, tree in modules().items()
    }
    assert {module: names for module, names in copies.items() if names} == {}


def test_a_service_request_is_one_class_within_its_budget():
    """``ServiceDispatch`` serves a request alone: the service-side core,
    its single-flight table and its admission record are bound nowhere,
    and the machines plus the gateway core stay inside their budget."""
    copies = {
        module: sorted(bound_names(tree) & set(SERVICE_CORE_RETIRED))
        for module, tree in modules().items()
    }
    assert {module: names for module, names in copies.items() if names} == {}
    lines = code_lines(SERVICE / "dispatch.py") + code_lines(SERVICE / "core.py")
    assert lines <= CORE_BUDGET, f"dispatch.py + core.py: {lines} code lines"


def test_a_request_has_one_envelope():
    """The pool pickles a ``ServiceRequest`` as it is, so it has no dict
    form; its metadata bag is the only one — a context keeps no copy."""
    context = modules()["context.py"]
    assert not class_members(context, "ServiceRequest") & set(REQUEST_RETIRED)
    assert not class_members(context, "RequestContext") & set(CONTEXT_RETIRED)


def test_the_gateway_admits_an_attempt_in_one_place():
    """The plain and the resilient path share one attempt step, so
    ``dispatch.py`` asks ``GatewayCore`` to admit in exactly one call."""
    admits = [
        node
        for node in ast.walk(modules()["dispatch.py"])
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "self.core.admit"
    ]
    assert len(admits) == 1


def dataclass_fields(tree: ast.Module, name: str) -> list[str]:
    """The annotated fields of a module-level class, in order."""
    (cls,) = classes(tree, (name,))
    return [
        node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)
    ]


def test_the_resilience_policy_has_only_the_knobs_in_use():
    """Each knob has a value some caller sets: the policy bundle is
    retry, budget and breaker, a breaker is a threshold and a cooldown
    (outcomes always apply at idle edges), and the chaos default takes
    no parameter."""
    tree = modules()["resilience.py"]
    assert dataclass_fields(tree, "ResiliencePolicy") == [
        "retry",
        "budget",
        "breaker",
    ]
    assert dataclass_fields(tree, "BreakerConfig") == [
        "failure_threshold",
        "cooldown_ticks",
    ]
    (default,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "default_resilience"
    ]
    args = default.args
    assert not (args.posonlyargs or args.args or args.kwonlyargs)
    assert args.vararg is None and args.kwarg is None


def test_the_service_lifecycle_is_written_once():
    """No service driver module defines a lifecycle method (``submit``
    and friends are also gateway/client method names, so the check is
    per driver module, not tree-wide) or makes a core step call."""
    trees = modules()
    dispatch = trees["dispatch.py"]
    (machine,) = [
        node
        for node in dispatch.body
        if isinstance(node, ast.ClassDef) and node.name == "ServiceDispatch"
    ]
    assert set(SERVICE_LIFECYCLE) <= defined_names(machine)
    for name in SERVICE_DRIVERS:
        tree = trees[f"{name}.py"]
        copies = defined_names(tree) & set(SERVICE_LIFECYCLE + SERVICE_RETIRED)
        assert not copies, f"{name}.py defines {sorted(copies)}"
        steps = called_attributes(tree) & SERVICE_STEPS
        assert not steps, f"{name}.py calls {sorted(steps)}"


def test_the_client_protocol_is_written_once():
    """The protocol's steps are defined in ``wire.py`` only, all of them
    on ``ClientProtocol`` or beside it; the twins' copies stay gone; and
    neither shell touches the codec, an op name or a field of a frame."""
    trees = modules()
    homes = {name: [] for name in CLIENT_LIFECYCLE}
    for module, tree in trees.items():
        for name in defined_names(tree) & homes.keys():
            homes[name].append(module)
    assert homes == {name: ["wire.py"] for name in CLIENT_LIFECYCLE}
    (protocol,) = [
        node
        for node in trees["wire.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "ClientProtocol"
    ]
    assert {"close", "lost"} <= defined_names(protocol)
    tcp = trees["tcp.py"]
    copies = defined_names(tcp) & set(CLIENT_RETIRED)
    assert not copies, f"tcp.py defines {sorted(copies)}"
    for shell in classes(tcp, CLIENT_SHELLS):
        assert_looks_inside_no_frame(shell)


def classes(tree: ast.Module, names: tuple) -> list[ast.ClassDef]:
    found = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in names
    ]
    assert len(found) == len(names)
    return found


def assert_looks_inside_no_frame(shell: ast.ClassDef) -> None:
    """A shell names no codec function and no op constant, subscripts
    nothing with a field name and calls no ``get``/``pop``/``feed``."""
    for node in ast.walk(shell):
        if isinstance(node, ast.Name):
            assert node.id not in FRAME_CODEC, f"{shell.name} uses {node.id}"
        # message["field"] / message.get("field"): reading a frame
        if isinstance(node, ast.Subscript):
            key = getattr(node.slice, "value", None)
            assert not isinstance(key, str), (
                f"{shell.name} subscripts with {key!r}"
            )
    reads = called_attributes(shell) & {"get", "pop", "feed"}
    assert not reads, f"{shell.name} calls {sorted(reads)}"


def test_the_server_protocol_is_written_once():
    """Each step of serving a connection is defined in ``wire.py`` only;
    the coroutines that decided them in ``tcp.py`` stay gone, and so
    does the stream pair; the server's shells look inside no frame, take
    no lock and spawn at most the drain op's task; and ``tcp.py`` knows
    the wire as two classes."""
    trees = modules()
    homes = {name: [] for name in SERVER_LIFECYCLE}
    for module, tree in trees.items():
        for name in defined_names(tree) & homes.keys():
            homes[name].append(module)
    assert homes == {name: ["wire.py"] for name in SERVER_LIFECYCLE}
    (protocol,) = classes(trees["wire.py"], ("ServerProtocol",))
    assert {"receive", "connection_ended"} <= defined_names(protocol)
    tcp = trees["tcp.py"]
    copies = defined_names(tcp) & set(SERVER_RETIRED)
    assert not copies, f"tcp.py defines {sorted(copies)}"
    shells = classes(tcp, SERVER_SHELLS)
    for shell in shells:
        assert_looks_inside_no_frame(shell)
    spawns = [
        node
        for shell in shells
        for node in ast.walk(shell)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("create_task", "ensure_future")
    ]
    assert len(spawns) <= 1
    assert not names_used(tcp) & {"start_server", "StreamReader"}
    assert "asyncio.Lock(" not in (SERVICE / "tcp.py").read_text()
    from_wire = {
        alias.name
        for node in ast.walk(tcp)
        if isinstance(node, ast.ImportFrom) and node.module == "wire"
        for alias in node.names
    }
    assert from_wire == {"ClientProtocol", "ServerProtocol"}
    names = {n.id for n in ast.walk(tcp) if isinstance(n, ast.Name)}
    assert not names & FRAME_CODEC


def test_the_wire_has_one_shell_per_side_within_its_budget():
    """``tcp.py`` defines one client and one server shell — the retired
    twins stay gone — and the transport stays inside its code budget."""
    copies = defined_names(modules()["tcp.py"]) & set(SHELLS_RETIRED)
    assert not copies, f"tcp.py defines {sorted(copies)}"
    lines = code_lines(SERVICE / "tcp.py") + code_lines(SERVICE / "wire.py")
    assert lines <= TCP_BUDGET, f"tcp.py + wire.py: {lines} code lines"


def test_the_codec_memos_add_no_knob():
    """The four wire classes keep their constructors, each memo table is
    bounded by ``MEMO_ENTRIES = DEFAULT_MAX_ENTRIES``, and neither half
    of the transport reads the environment."""
    trees = modules()
    for (module, name), parameters in WIRE_CONSTRUCTORS.items():
        (cls,) = classes(trees[module], (name,))
        (init,) = [
            node
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ]
        args = init.args
        assert args.vararg is None and args.kwarg is None, name
        named = args.posonlyargs + args.args + args.kwonlyargs
        assert [arg.arg for arg in named[1:]] == parameters, name
    (bound,) = [
        node.value.id
        for node in trees["wire.py"].body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets] == ["MEMO_ENTRIES"]
    ]
    assert bound == "DEFAULT_MAX_ENTRIES"
    for module in ("tcp.py", "wire.py"):
        assert not names_used(trees[module]) & {"environ", "getenv", "os"}


def test_the_transport_reads_no_private_field_of_a_gateway():
    """``tcp.py`` reaches a gateway through public calls only — the
    fault plan's drop is ``take_connection_drop()``, not a ``getattr``
    for ``_injector`` — and the protocol, which holds the gateway,
    likewise."""
    trees = modules()
    for module, holders in (("tcp.py", {"gateway"}), ("wire.py", {"_gateway"})):
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Attribute
            ):
                if node.value.attr in holders:
                    assert not node.attr.startswith("_"), (
                        f"{module} reads gateway.{node.attr}"
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "getattr" and len(node.args) > 1:
                    key = getattr(node.args[1], "value", "")
                    assert not str(key).startswith("_"), (
                        f"{module} getattr()s {key!r}"
                    )
    gateway = classes(trees["dispatch.py"], ("GatewayDispatch",))[0]
    assert {"take_connection_drop", "when_done"} <= defined_names(gateway)


def names_used(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions: names, attributes, imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def constructed(tree: ast.AST) -> set[str]:
    """Names called directly, or handed to ``partial`` as the callable."""
    built = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            built.add(node.func.id)
            if node.func.id == "partial" and node.args:
                if isinstance(node.args[0], ast.Name):
                    built.add(node.args[0].id)
    return built


def test_the_driver_table_is_written_once():
    """A driver is picked by name, in ``service/loadtest.py``: the CLI
    names no gateway, server, client or loop replayer and imports no
    ``asyncio``; no bench outside the end-to-end harness (which measures
    from outside ``src/`` on purpose) builds the loop gateway or the
    socket server itself; and the module that does is a driver-side one
    the package does not import, so a process that only serves requests
    never loads it."""
    cli = ast.parse(CLI.read_text())
    wired = names_used(cli) & DRIVER_WIRING
    assert not wired, f"cli.py names {sorted(wired)}"
    assert "asyncio" not in imported_roots(cli)
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        built = constructed(ast.parse(path.read_text())) & {
            "AsyncServiceGateway",
            "TcpServerThread",
        }
        assert not built, f"{path.name} constructs {sorted(built)}"
    trees = modules()
    assert "run_trace" in defined_names(trees["loadtest.py"])
    assert "loadtest" not in SANS_IO
    for node in ast.walk(trees["__init__.py"]):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "loadtest", "repro.service imports loadtest"
    assert ".loadtest" not in lazy_table(trees["__init__.py"]).values()
    # the table imports each driver in the branch that builds it
    top = ast.Module(
        body=[
            node
            for node in trees["loadtest.py"].body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ],
        type_ignores=[],
    )
    substrates = imported_modules("loadtest.py", top) & {
        "asyncio",
        "repro.service.aio",
        "repro.service.gateway",
        "repro.service.procpool",
        "repro.service.tcp",
    }
    assert not substrates, f"loadtest.py imports {sorted(substrates)} on load"


def test_the_core_imports_no_concurrency_substrate():
    trees = modules()
    for name in SANS_IO:
        leaked = imported_roots(trees[f"{name}.py"]) & {
            "threading",
            "asyncio",
            "socket",
        }
        assert not leaked, f"{name}.py imports {sorted(leaked)}"
    # the protocol takes its future type from the shell, too
    assert "concurrent" not in imported_roots(trees["wire.py"])


def test_drivers_make_no_gateway_decision():
    """No ledger write and no ResilienceCore/FaultInjector decision call
    in the driver modules: they reach policy only through the machine."""
    trees = modules()
    for name in DRIVERS:
        tree = trees[f"{name}.py"]
        calls = called_attributes(tree)
        assert not calls & DECISIONS, f"{name}.py calls {calls & DECISIONS}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert not imported & {
                    "ResilienceCore",
                    "FaultInjector",
                    "ledger",
                }, f"{name}.py imports {imported}"


def imported_modules(module: str, tree: ast.Module) -> set[str]:
    """Absolute names of every module ``tree`` imports from, relative
    imports resolved against ``module``'s package."""
    package = ["repro", "service", *Path(module).parent.parts]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            found.add(".".join(base + ([node.module] if node.module else [])))
    return found


def class_members(tree: ast.Module, name: str) -> set[str]:
    """Methods and annotated fields a module-level class defines."""
    (cls,) = classes(tree, (name,))
    members = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            members.add(node.target.id)
    return members


def test_the_stage_cache_is_the_one_way_a_profile_is_shared():
    """No service module imports the profiler or the trace package, takes
    a ``share_profiles`` knob or defines the planner; a request carries
    no trace; a context has no wire form; and the package exports none
    of the retired names."""
    trees = modules()
    for module, tree in trees.items():
        leaked = {
            name
            for name in imported_modules(module, tree)
            if name.startswith(PROFILE_PACKAGES)
        }
        assert not leaked, f"{module} imports {sorted(leaked)}"
        copies = defined_names(tree) & set(PROFILE_SHARING_RETIRED)
        assert not copies, f"{module} defines {sorted(copies)}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args.posonlyargs + node.args.args
                names = {arg.arg for arg in arguments + node.args.kwonlyargs}
                assert "share_profiles" not in names, f"{module}:{node.name}"
    context = trees["context.py"]
    assert "trace" not in class_members(context, "ServiceRequest")
    assert not class_members(context, "RequestContext") & set(CONTEXT_RETIRED)
    package = trees["__init__.py"]
    exported = {
        node.value
        for node in ast.walk(package)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    } | names_used(package)
    assert not exported & set(PROFILE_SHARING_RETIRED)


def test_an_artifact_store_is_attached_one_way():
    """A store is bound where the estimator is built — a path in the
    pool's factory, ``PipelineCache(artifact_store=)`` for a shared
    cache: no source, bench or doc names a helper that attaches one
    later, and the pool drivers take no store of their own."""
    for folder in ("src", "benchmarks", "docs"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            text = path.read_text()
            for name in STORE_ATTACH_RETIRED:
                assert name not in text, f"{path.relative_to(ROOT)}: {name}"
    drivers = ("ProcEstimationService", "ProcServiceGateway")
    for cls in classes(modules()["procpool.py"], drivers):
        (init,) = [
            node
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ]
        names = {arg.arg for arg in init.args.args + init.args.kwonlyargs}
        assert "artifact_store" not in names, cls.name


def test_the_middleware_chain_carries_policy_only():
    """The retired observation adapters are defined nowhere, and
    ``middleware.py`` cannot build a span: it imports no exporter, no
    ``Tracer``, no ``Span``, and mints no span id."""
    trees = modules()
    for module, tree in trees.items():
        copies = defined_names(tree) & set(MIDDLEWARE_RETIRED)
        assert not copies, f"{module} defines {sorted(copies)}"
    middleware = trees["middleware.py"]
    for node in ast.walk(middleware):
        if isinstance(node, ast.ImportFrom):
            assert "exporters" not in (node.module or ""), node.module
            imported = {alias.name for alias in node.names}
            assert not imported & {"Span", "Tracer"}, imported
        if isinstance(node, ast.Attribute):
            assert node.attr != "_new_id"


def test_the_hook_loop_is_written_once():
    """``run_request`` walks ``self.middlewares`` in one ``for`` — no
    traced twin beside the plain loop."""
    (run_request,) = [
        node
        for node in ast.walk(modules()["middleware.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "run_request"
    ]
    loops = [
        node
        for node in ast.walk(run_request)
        if isinstance(node, ast.For)
        and "self.middlewares" in ast.unparse(node.iter)
    ]
    assert len(loops) == 1


def test_there_is_one_token_bucket():
    """``_tokens`` is assigned in ``TokenBucket`` and nowhere else: the
    rate limiter holds a bucket, it does not re-derive the refill."""
    owners = set()
    for module, tree in modules().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "_tokens"
                    and isinstance(node.ctx, ast.Store)
                ):
                    owners.add((module, cls.name))
    assert owners == {("control.py", "TokenBucket")}


def test_the_core_closes_a_request_span_in_one_place():
    """Counter, ledger event and span status of an outcome come from one
    function, so ``telemetry.close`` has exactly one caller in
    ``ServiceDispatch``."""
    (machine,) = classes(modules()["dispatch.py"], ("ServiceDispatch",))
    closers = [
        method.name
        for method in machine.body
        if isinstance(method, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith("telemetry.close")
            for node in ast.walk(method)
        )
    ]
    assert closers == ["_emit"]


def python_blocks(path: Path) -> list[str]:
    """The fenced Python blocks of a Markdown file, in order."""
    return PYTHON_BLOCK.findall(path.read_text())


def caller_sources() -> list[tuple[Path, str, str]]:
    """``(file, source, package)`` for every caller of the service outside
    ``tests/``; ``package`` resolves a relative import (``""``: none)."""
    repro = ROOT / "src" / "repro"
    found = [
        (path, path.read_text(), "repro")
        for path in (CLI, repro / "__init__.py")
    ]
    scripts = sorted((ROOT / "benchmarks").rglob("*.py"))
    scripts += sorted((ROOT / "examples").glob("*.py"))
    found.extend((path, path.read_text(), "") for path in scripts)
    for path in sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]:
        found.extend((path, block, "") for block in python_blocks(path))
    return found


def lazy_table(tree: ast.Module) -> dict[str, str]:
    """A package facade's ``_EXPORTS`` (name -> defining module, relative
    to the package), read without importing it; ``{}`` if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            ast.unparse(target) for target in node.targets
        ] == ["_EXPORTS"]:
            return ast.literal_eval(node.value)
    return {}


def names_imported_from(module: str) -> set[str]:
    """Every name some caller outside ``tests/`` imports from ``module``,
    by an import statement or by a lazy facade's table."""
    names = set()
    for _, source, package in caller_sources():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            name = node.module or ""
            if node.level:
                name = f"{package}.{name}"
            if name == module:
                names.update(alias.name for alias in node.names)
        names.update(
            name
            for name, where in lazy_table(tree).items()
            if f"{package}{where}" == module
        )
    return names


def exported(tree: ast.Module) -> list[str]:
    """A module's ``__all__``, read without importing it."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["__all__"]
    ]
    return ast.literal_eval(value)


def test_the_package_exports_exactly_what_its_callers_import():
    """``repro.service`` re-exports a name iff the CLI, the package root,
    a bench, an example or a doc imports it from there: a re-export
    nobody imports makes an internal public API, an import without one
    breaks a caller.  The facade imports nothing but its loader: its
    lazy table holds exactly its ``__all__``, each name under the module
    that binds it, and the telemetry package exports ``Telemetry`` alone."""
    trees = modules()
    package = trees["__init__.py"]
    names = exported(package)
    assert len(names) == len(set(names))
    assert set(names) == names_imported_from("repro.service")
    imported = [
        (node.module, [alias.name for alias in node.names])
        for node in package.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imported == [("_lazy", ["lazy_exports"])]
    table = lazy_table(package)
    assert set(table) == set(names)
    for name, where in table.items():
        path = where.lstrip(".").replace(".", "/")
        tree = trees.get(f"{path}.py") or trees[f"{path}/__init__.py"]
        binders = bound_names(tree) | {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert name in binders, f"{where} binds no {name}"
    assert exported(trees["telemetry/__init__.py"]) == ["Telemetry"]


def test_the_default_chain_is_validation_then_cache():
    """A behavioural pin (it imports the package)."""
    from repro.service import EstimateCache, default_middlewares

    names = tuple(m.name for m in default_middlewares(EstimateCache()))
    assert names == ("validation", "cache")


def test_every_policy_selects_one_shard():
    """A behavioural pin: ``select`` answers one shard index."""
    from repro.service.routing import POLICY_NAMES, make_policy

    fingerprint = "9b2d6c98084d2ab3676d7c05072ed27f"
    for name in POLICY_NAMES:
        shard = make_policy(name, 4).select(fingerprint, [0] * 4)
        assert type(shard) is int and shard in range(4), (name, shard)


if __name__ == "__main__":
    counts = {
        str(path.relative_to(SERVICE)): code_lines(path)
        for path in sorted(SERVICE.rglob("*.py"))
    }
    print("code lines, src/repro/service (no blanks/comments/docstrings)")
    for module, count in counts.items():
        print(f"  {count:6d}  {module}")
    print(f"  {sum(counts.values()):6d}  total")
    # the transport's budget: both halves of the protocol and their shells
    print(f"  {counts['tcp.py'] + counts['wire.py']:6d}  tcp.py + wire.py")
    # the core's budget: both dispatch machines and the gateway core
    print(f"  {counts['dispatch.py'] + counts['core.py']:6d}  dispatch.py + core.py")
    # the resilience plane: the attempt machine and its two policy modules
    plane = ("dispatch.py", "resilience.py", "faults.py")
    print(f"  {sum(counts[name] for name in plane):6d}  {' + '.join(plane)}")
    # the caller's side: what is left in the CLI once the wiring is here
    print(f"  {code_lines(CLI) + sum(counts.values()):6d}  cli.py + service/")
