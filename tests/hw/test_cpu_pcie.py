"""The PCIe cost model."""

import pytest

from repro.hw.pcie import PcieLink


class TestPcieLink:
    def test_read_includes_round_trip(self):
        link = PcieLink(round_trip_us=1.0, bytes_per_us=1000)
        assert link.access_time("r", 500) == pytest.approx(1.5)

    def test_write_is_posted(self):
        link = PcieLink(round_trip_us=1.0, bytes_per_us=1000)
        # Posted writes pay only half a round trip.
        assert link.access_time("w", 0) == pytest.approx(0.5)
        assert link.access_time("w", 500) < link.access_time("r", 500)

    def test_scaling_with_size(self):
        link = PcieLink()
        assert link.access_time("r", 4096) > link.access_time("r", 64)
