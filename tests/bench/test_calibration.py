"""Every calibration anchor must hold — this is what makes the
figure-level results trustworthy. The anchors are the claims of the
experiment table's ``calibration`` row."""

import pytest

from repro.bench.calibration import ROW, report
from repro.bench.experiments import claims_of

ANCHORS = claims_of(ROW)


def test_report_shape():
    rows = report()
    assert len(rows) == len(ANCHORS) == 9
    assert all({"anchor", "paper", "measured", "tolerance", "ok"} == set(r)
               for r in rows)


@pytest.fixture(scope="module")
def measured():
    return ROW.measure()


@pytest.mark.parametrize("anchor", ANCHORS, ids=lambda a: a.name)
def test_anchor(anchor, measured):
    value = anchor.value(measured)
    assert anchor.holds(value), (f"{anchor.name}: measured {value:.3f} vs "
                                 f"paper {anchor.paper}, band {anchor.band}")
