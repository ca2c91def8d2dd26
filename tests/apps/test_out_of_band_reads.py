"""Corpus 4 of ROADMAP 1(a): no client reads server memory out of band.

A client class holds a connection and nothing else: what it learns of a
server's memory must arrive in a reply. ``.space`` is the server's
address space (host memory and NIC SRAM), so reading it from a client
is a zero-time look no real client can make. Servers keep theirs —
``load`` at set-up time, and the FaRM server's own reads. The scan
reads the source, in the pattern of ``tests/test_request_path.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _client_space_reads(paths):
    """``file:line Class.method`` for every ``.space`` attribute read in
    a method of a class whose name ends in ``Client``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.endswith("Client")):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                found += [f"{path.relative_to(SRC)}:{node.lineno} "
                          f"{cls.name}.{method.name}"
                          for node in ast.walk(method)
                          if isinstance(node, ast.Attribute)
                          and node.attr == "space"]
    return found


@pytest.mark.parametrize("paths", [
    pytest.param(sorted((SRC / "apps").rglob("*.py")), id="apps"),
    pytest.param(
        [SRC / "prism" / "client.py"], id="prism-client",
        marks=pytest.mark.xfail(
            strict=True,
            reason="corpus 4: PrismClient.displaced reads an install's "
                   "buffer back from NIC SRAM on a CAS miss; ROADMAP "
                   "1(a) step 3 moves it into the chain's reply")),
])
def test_no_client_class_reads_server_memory(paths):
    assert _client_space_reads(paths) == []

