"""Figure 3 (PRISM-KV vs Pilaf, YCSB-C, uniform): the ``fig3`` row of
repro.bench.experiments; ``__main__`` runs its traced point."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig3"]
test_fig3_kv_read_only = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
