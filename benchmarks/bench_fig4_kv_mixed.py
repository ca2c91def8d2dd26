"""Figure 4 (PRISM-KV vs Pilaf, YCSB-A 50/50): the ``fig4`` row of
repro.bench.experiments; ``__main__`` runs its traced point."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["fig4"]
test_fig4_kv_mixed = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
