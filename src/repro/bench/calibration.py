"""Calibration: where every timing constant comes from.

The simulator's credibility rests on its device models being anchored
to the paper's own measurements (§2.1, §4.3, Figs. 1-2). Each anchor —
paper value, tolerance, the model knobs that encode it, how it is
measured — is a row of :data:`repro.bench.experiments.ANCHORS` and a
claim of the ``calibration`` experiment; ``tests/bench/test_calibration.py``
checks them all on every test run, so a drive-by constant tweak that
breaks calibration fails CI immediately. :func:`report` is a view of
those claims.
"""

import sys

from repro.bench.experiments import (
    ANCHORS,
    EXPERIMENTS,
    check,
    claims_of,
    script_main,
)

ROW = EXPERIMENTS["calibration"]


def report():
    """Check every anchor; returns the list of row dicts."""
    return [{"anchor": claim.name, "paper": claim.paper,
             "measured": round(measured, 3),
             "tolerance": ANCHORS[claim.name][1], "ok": ok}
            for claim, measured, ok in check(ROW.measure(), claims_of(ROW))]


if __name__ == "__main__":
    sys.exit(script_main(ROW))
