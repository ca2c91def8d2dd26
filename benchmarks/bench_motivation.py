"""§2.1 motivation (one-sided READ vs RPC): the ``motivation`` row of
repro.bench.experiments; ``__main__`` runs it and checks its claims."""

import sys

from repro.bench.experiments import EXPERIMENTS, pytest_case, script_main

ROW = EXPERIMENTS["motivation"]
test_motivation_numbers = pytest_case(ROW)

if __name__ == "__main__":
    sys.exit(script_main(ROW))
