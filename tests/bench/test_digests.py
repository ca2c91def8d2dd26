"""Every output of seven armed points, pinned byte for byte.

The pins in ``benchmarks/BENCH_pins.json`` hold seven metrics per
point. A refactor of the observation code can keep all of them and
still move a Chrome trace, a flight dump or a printed table. This test
runs seven points with their observers armed, each in a fresh
subprocess, and compares the SHA-256 of each output with
``benchmarks/BENCH_digests.json``:

* ``record``: the ``--json`` record without ``provenance`` and without
  each point's ``host`` and ``wall`` sections (host clocks), re-dumped
  with ``indent=1`` in its own key order;
* ``trace``: the Chrome trace as written;
* ``flight``: the flight dump as written;
* ``explain``: the stdout of ``explain flight.json --top 5``;
* ``stdout``: the command's stdout, with its wall-clock figures
  (``(0.8s wall, 20,574 events/s)``) blanked.

A point with no flight dump has no ``flight`` or ``explain`` output.

A mismatch names the output that moved and where: the digest file also
stores a short hash per block of lines (at most :data:`BLOCKS` blocks,
so a short output is hashed line by line), and the message quotes the
first block that differs. The Chrome trace is one line of JSON; its
lines for this purpose are those of the same JSON at ``indent=1``.

To re-record (a change that moves an output on purpose), run
``PYTHONPATH=src python tests/bench/test_digests.py --record`` on a
clean checkout of the reference commit; it writes the file with that
commit in ``recorded_at``. Say in CHANGES.md which output moved and why.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DIGESTS = REPO / "benchmarks" / "BENCH_digests.json"

#: at most this many block hashes per output
BLOCKS = 128

_CLI = ["-m", "repro.bench.cli"]
_ARMED = ["--trace", "trace.json", "--json", "record.json"]
_FLIGHT = ["--flight", "--flight-dump", "flight.json"]

#: name -> the argv after ``python``, run in an empty directory
POINTS = {
    "rs-faulted": [
        *_CLI, "point", "--kind", "rs", "--flavor", "prism-sw",
        "--clients", "8", "--keys", "2000", "--measure-us", "900",
        "--faults", "seed=3,drop=0.01,dup=0.01,jitter=1.5",
        *_ARMED, "--util", *_FLIGHT, "--primitives", "--series"],
    "fig3": [
        *_CLI, "fig3", "--clients", "4", "--keys", "1000",
        *_ARMED, *_FLIGHT],
    "tx-prism-sw": [
        *_CLI, "point", "--kind", "tx", "--flavor", "prism-sw",
        "--clients", "8", "--keys", "2000", "--zipf", "0.9",
        *_ARMED, *_FLIGHT],
    "tx-farm-sw-dup": [
        *_CLI, "point", "--kind", "tx", "--flavor", "farm-sw",
        "--clients", "8", "--keys", "2000", "--faults", "seed=4,dup=0.1",
        *_ARMED, *_FLIGHT],
    "kv-open-loop-faulted": [
        "benchmarks/bench_fig3_kv_read.py", "--clients-aggregated",
        "100000", "--keys", "2000",
        "--faults", "seed=1,drop=0.01,dup=0.005,jitter=2",
        *_ARMED, "--series", "--primitives", "--util"],
    # the two device backends whose ops split into phases: ``--json``
    # arms the utilization monitors (the ``.pcie`` / ``.hostpath``
    # charge), the trace carries each op's ``parts_us``
    "kv-prism-hw": [
        *_CLI, "point", "--kind", "kv", "--flavor", "prism-hw",
        "--clients", "4", "--keys", "1000", *_ARMED, "--primitives"],
    "kv-prism-bluefield": [
        *_CLI, "point", "--kind", "kv", "--flavor", "prism-bluefield",
        "--clients", "4", "--keys", "1000", *_ARMED, "--primitives"],
}

_WALL = re.compile(r"\([\d.]+s wall, [\d,]+ events/s\)")


def _run(argv, cwd):
    """The outputs of one point: name -> text."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if argv[0].endswith(".py"):
        argv = [str(REPO / argv[0]), *argv[1:]]

    def python(*args):
        return subprocess.run(
            [sys.executable, *args], check=True, env=env, cwd=cwd,
            capture_output=True, text=True, timeout=300).stdout

    outputs = {"stdout": _WALL.sub("(wall)", python(*argv))}
    record = json.loads((cwd / "record.json").read_text())
    del record["provenance"]
    for point in record["points"]:
        point.pop("host", None)
        point.pop("wall", None)
    outputs["record"] = json.dumps(record, indent=1) + "\n"
    outputs["trace"] = (cwd / "trace.json").read_text()
    if (cwd / "flight.json").exists():
        outputs["flight"] = (cwd / "flight.json").read_text()
        outputs["explain"] = python(*_CLI, "explain", "flight.json",
                                    "--top", "5")
    return outputs


def _lines(name, text):
    if name == "trace":
        text = json.dumps(json.loads(text), indent=1)
    return text.splitlines()


def _digest(name, text):
    """{sha256, lines, block, blocks}: the whole output's hash, and a
    short hash of each run of ``block`` lines (space-separated)."""
    lines = _lines(name, text)
    block = max(1, math.ceil(len(lines) / BLOCKS))
    blocks = [hashlib.sha256("\n".join(lines[i:i + block]).encode())
              .hexdigest()[:8] for i in range(0, len(lines), block)]
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": len(lines), "block": block, "blocks": " ".join(blocks)}


def _where(name, text, pinned):
    """Where ``text`` first departs from the output ``pinned`` hashed."""
    lines = _lines(name, text)
    block = pinned["block"]
    for index, old in enumerate(pinned["blocks"].split()):
        chunk = lines[index * block:(index + 1) * block]
        if hashlib.sha256("\n".join(chunk).encode()).hexdigest()[:8] != old:
            first = index * block
            span = (f"line {first + 1}" if block == 1 else
                    f"lines {first + 1}-{first + block}")
            now = chunk[0] if chunk else "<end of output>"
            return f"first differing {span}, now: {now[:200]!r}"
    return (f"{len(lines)} lines, was {pinned['lines']}; the pinned lines "
            "are unchanged" if len(lines) != pinned["lines"] else
            "every line hashes the same: a byte outside the lines moved")


@pytest.mark.parametrize("name", sorted(POINTS))
def test_armed_point_outputs_match_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())["points"][name]
    outputs = _run(POINTS[name], tmp_path)
    assert sorted(outputs) == sorted(pinned), name
    moved = [f"{name}: {output} moved ({_where(output, text, pinned[output])})"
             for output, text in sorted(outputs.items())
             if hashlib.sha256(text.encode()).hexdigest()
             != pinned[output]["sha256"]]
    assert not moved, "\n".join(moved)


def _record():
    """Write :data:`DIGESTS` from this checkout's outputs."""
    import tempfile
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, check=True,
        capture_output=True, text=True).stdout.strip()
    points = {}
    for name, argv in POINTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = _run(argv, Path(tmp))
        points[name] = {output: _digest(output, text)
                        for output, text in sorted(outputs.items())}
    DIGESTS.write_text(json.dumps(
        {"recorded_at": f"commit {commit}", "points": points}, indent=1)
        + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_digests.py --record")
    _record()
