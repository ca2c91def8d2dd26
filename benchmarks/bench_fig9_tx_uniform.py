"""Figure 9 (PRISM-TX vs FaRM, YCSB-T, uniform): the ``fig9`` row of
repro.bench.experiments; ``__main__`` runs its traced point."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig9"]
test_fig9_tx_uniform = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
