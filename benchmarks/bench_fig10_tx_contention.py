"""Figure 10 (peak transaction throughput vs contention): the ``fig10`` row of
repro.bench.experiments; ``__main__`` runs it and checks its claims."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig10"]
test_fig10_tx_contention = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
