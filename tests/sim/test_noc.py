"""Unit tests for the mesh NoC model."""

import pytest

from repro.sim.noc import MeshNoc


class TestGeometry:
    def test_width_covers_cores(self):
        noc = MeshNoc(cores=28)
        assert noc.width ** 2 >= 28

    def test_coordinates_round_trip(self):
        noc = MeshNoc(cores=16)
        seen = {noc.coordinates(n) for n in range(16)}
        assert len(seen) == 16

    def test_out_of_range_node(self):
        with pytest.raises(IndexError):
            MeshNoc(cores=4).coordinates(4)


class TestLatency:
    def test_self_distance_zero_hops(self):
        noc = MeshNoc()
        assert noc.hops(5, 5) == 0
        assert noc.latency(5, 5) == noc.base_cycles

    def test_manhattan_distance(self):
        noc = MeshNoc(cores=16)  # 4x4
        assert noc.hops(0, 5) == 2  # (0,0) -> (1,1)
        assert noc.hops(0, 15) == 6  # (0,0) -> (3,3)

    def test_symmetric(self):
        noc = MeshNoc(cores=16)
        for a, b in ((0, 7), (3, 12), (1, 14)):
            assert noc.hops(a, b) == noc.hops(b, a)

    def test_latency_grows_with_hops(self):
        noc = MeshNoc(cores=16)
        assert noc.latency(0, 15) > noc.latency(0, 1)

    def test_triangle_inequality(self):
        noc = MeshNoc(cores=16)
        assert noc.hops(0, 15) <= noc.hops(0, 5) + noc.hops(5, 15)


class TestHomeSlices:
    def test_home_slice_in_range(self):
        noc = MeshNoc(cores=28)
        for addr in (0, 64, 4096, 123456 * 64):
            assert 0 <= noc.home_slice(addr) < 28

    def test_adjacent_lines_interleave(self):
        noc = MeshNoc(cores=28)
        homes = {noc.home_slice(line * 64) for line in range(28)}
        assert len(homes) == 28  # lines stripe across all slices

    def test_l3_round_trip(self):
        noc = MeshNoc(cores=28)
        assert noc.l3_access_latency(0, 0) == 2 * noc.latency(0, 0)


class TestAverages:

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshNoc(cores=0)
        with pytest.raises(ValueError):
            MeshNoc(hop_cycles=-1)
