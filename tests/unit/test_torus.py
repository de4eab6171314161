"""Unit tests for the torus interconnect topology."""

import numpy as np
import pytest

from repro.runtime.torus import TorusTopology, dims_for_nodes


class TestDims:
    def test_product_preserved(self):
        for n in (1024, 4096, 16384, 1000, 77):
            dims = dims_for_nodes(n, 5)
            assert int(np.prod(dims)) == n
            assert len(dims) == 5

    def test_near_cubic(self):
        dims = dims_for_nodes(1024, 5)
        assert max(dims) / max(min(dims), 1) <= 4

    def test_handles_primes(self):
        dims = dims_for_nodes(17, 3)
        assert int(np.prod(dims)) == 17


class TestTopology:
    def test_coords_round_trip(self):
        t = TorusTopology((4, 4, 4))
        for node in range(64):
            assert t.node_id(t.coords(node)) == node

    def test_hops_symmetric(self):
        t = TorusTopology((4, 3, 2))
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(0, t.n_nodes, size=2)
            assert t.hops(a, b) == t.hops(b, a)

    def test_hops_self_zero(self):
        t = TorusTopology((5, 5))
        for node in range(25):
            assert t.hops(node, node) == 0

    def test_wraparound_shortcut(self):
        t = TorusTopology((8,))
        # node 0 to node 7 is 1 hop around the ring, not 7.
        assert t.hops(0, 7) == 1

    def test_diameter(self):
        t = TorusTopology((8, 8))
        assert t.diameter() == 8  # 4 + 4

    def test_hops_never_exceed_diameter(self):
        t = TorusTopology((4, 4, 2))
        rng = np.random.default_rng(1)
        a = rng.integers(0, t.n_nodes, size=100)
        b = rng.integers(0, t.n_nodes, size=100)
        assert (t.hops(a, b) <= t.diameter()).all()

    def test_mean_hops_positive_and_below_diameter(self):
        t = TorusTopology.for_nodes(1024, 5)
        assert 0 < t.mean_hops() <= t.diameter()

    def test_bisection_links(self):
        t = TorusTopology((8, 4))
        assert t.bisection_links() == 8  # 2 x (32/8)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4))
