"""Rule 11 on the request path (docs/performance.md): no module on a
server's request path, none of a client's fan-out and no PRISM
application starts a process.

A request crosses the fabric as a ``_Delivery``, runs on a device as an
``_Execution`` or on the RPC cores as a ``_Handling``, and is answered
with ``post_reply``; on the client it is a ``_Call`` that retransmits
itself, and a replicated or sharded client's fan-out is a ``Phase``:
scheduled payloads, each entry an instant at which model time has been
spent. A ``spawn`` on that path would put a bootstrap, a resume per
wait and a completion entry back on every request. The scan reads the
source, in the pattern of ``tests/obs/test_bus.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: every module a request passes through on its way to a server's
#: handler, device or receive queue, and back
REQUEST_PATH = sorted(
    ["rpc/erpc.py", "prism/server.py", "prism/backend.py",
     "prism/hardware.py", "prism/software.py", "prism/bluefield.py",
     "rdma/verbs.py"]
    + [path.relative_to(SRC).as_posix()
       for path in (SRC / "net").glob("*.py")])

#: a client's side of a round trip and of a phase's fan-out: a quorum
#: of replicas, or a sharded transaction's partitions
CLIENT_FANOUT = ["prism/client.py", "sim/phase.py",
                 "apps/blockstore/abd_lock.py", "apps/tx/sharded.py"]

#: the PRISM applications, whose retire flushes are launched tasks
PRISM_APPS = ["apps/kv/prism_kv.py", "apps/tx/prism_tx.py",
              "apps/blockstore/prism_rs.py"]

#: servers' background work, off the request path, which stays a
#: process: the recycler daemon and the fault injector's starvation
OFF_THE_PATH = ["prism/recycler.py", "faults/injector.py"]


def _process_starts(relative):
    """``lineno``s of ``spawn(...)`` / ``Process(...)`` calls in a module."""
    return [node.lineno for node in _process_start_calls(relative)]


def _process_start_calls(relative):
    tree = ast.parse((SRC / relative).read_text())
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in ("spawn", "Process"):
            calls.append(node)
    return calls


def test_no_request_path_module_starts_a_process():
    offenders = {relative: _process_starts(relative)
                 for relative in REQUEST_PATH}
    assert not {k: v for k, v in offenders.items() if v}, offenders
    assert "net/fabric.py" in REQUEST_PATH and len(REQUEST_PATH) >= 10


def test_no_client_fanout_module_starts_a_process():
    offenders = {relative: _process_starts(relative)
                 for relative in CLIENT_FANOUT}
    assert not {k: v for k, v in offenders.items() if v}, offenders


def test_no_prism_application_starts_a_process():
    """An operation's unawaited work — the recycler report of a retired
    buffer — is launched (``Simulator.launch``), not spawned: nothing
    PRISM-KV, PRISM-TX or PRISM-RS does per operation is a process."""
    offenders = {relative: _process_starts(relative)
                 for relative in PRISM_APPS}
    assert not {k: v for k, v in offenders.items() if v}, offenders


def test_the_scan_sees_the_processes_left_off_the_path():
    for relative in OFF_THE_PATH:
        assert relative not in REQUEST_PATH
        assert _process_starts(relative), relative
