"""perfbench: the repository's benchmark.

Four workloads, each run in its own single-threaded process through the
public ``repro.bench.harness.run_point`` API; host cost normalised by an
interleaved calibration loop; simulated results reported exactly; and a
per-layer ledger from a separate traced run. See ``README.md`` here.
"""

import os
import sys


def add_src_to_path():
    """Make ``repro`` importable from the checkout this package sits in.

    The benchmark is run as ``python3 -m perfbench`` from the root of a plain
    checkout (nothing installed), so the program's ``src/`` directory has to
    be put on the path by hand. In a directory without ``src/repro`` the later
    import fails and the benchmark exits non-zero, as the contract asks.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
