"""Figure 2 (indirect read vs two READs by network tier): the ``fig2`` row of
repro.bench.experiments; ``__main__`` runs it and checks its claims."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig2"]
test_fig2_indirect_read_vs_network = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
