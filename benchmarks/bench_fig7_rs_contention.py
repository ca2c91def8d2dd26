"""Figure 7 (PRISM-RS vs ABDLOCK under contention): the ``fig7`` row of
repro.bench.experiments; ``__main__`` runs it and checks its claims."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig7"]
test_fig7_rs_contention = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
