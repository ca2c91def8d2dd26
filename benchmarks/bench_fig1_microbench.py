"""Figure 1 (primitive microbenchmarks, direct link): the ``fig1`` row of
repro.bench.experiments; ``__main__`` runs it and checks its claims."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig1"]
test_fig1_primitive_latencies = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
