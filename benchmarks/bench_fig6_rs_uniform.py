"""Figure 6 (PRISM-RS vs lock-based ABD, uniform): the ``fig6`` row of
repro.bench.experiments; ``__main__`` runs its traced point."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig6"]
test_fig6_rs_uniform = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
