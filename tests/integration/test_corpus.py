"""Reproducer corpus entries 1 and 2 (ROADMAP 1(a)), as whole benchmark
points under seeded fault plans.

Each test runs exactly what ``python -m repro.bench.cli point`` runs for
the command in its docstring, under a wall cap. Both died while a
duplicated or retransmitted one-sided chain executed a second time: the
transport now answers a repeat from the reply it saved.
"""

import pytest

from repro.bench.experiments import ycsb_t
from repro.bench.harness import run_point
from repro.workload import YcsbWorkload

pytestmark = pytest.mark.usefixtures("ties")

_KEYS = 2000
_CLIENTS = 8


def _point(kind, faults, wall_cap):
    if kind == "tx":
        make = ycsb_t
    else:
        make = (lambda keys, **kwargs: YcsbWorkload(
            keys, read_fraction=0.5, **kwargs))
    with wall_cap(60):
        return run_point(
            kind, "prism-sw",
            lambda i: make(_KEYS, zipf=0.0, seed=1, client_id=i),
            _CLIENTS, n_keys=_KEYS, faults=faults)


def test_corpus_1_kv_puts_survive_message_loss(wall_cap):
    """``point --kind kv --flavor prism-sw --clients 8 --keys 2000
    --faults seed=3,drop=0.02``: PUT's install chain is retried like any
    other, and the run completes with 0 gave up."""
    result = _point("kv", "seed=3,drop=0.02", wall_cap)
    report = result.extra["faults"]
    assert result.ops > 0
    assert report["messages_dropped"] > 0
    assert report["retransmissions"] > 0
    assert report["retries_exhausted"] == 0


def test_corpus_2_tx_drains_under_duplication(wall_cap):
    """``point --kind tx --flavor prism-sw --clients 8 --keys 2000
    --faults seed=3,dup=0.01``: a duplicated prepare is answered from the
    saved reply, so no stamp is raised twice and the run drains."""
    result = _point("tx", "seed=3,dup=0.01", wall_cap)
    report = result.extra["faults"]
    assert result.ops > 0
    assert report["messages_duplicated"] > 0
    assert report["retries_exhausted"] == 0
