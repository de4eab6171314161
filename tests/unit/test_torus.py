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

    def test_hops_never_exceed_diameter(self):
        t = TorusTopology((4, 4, 2))
        rng = np.random.default_rng(1)
        a = rng.integers(0, t.n_nodes, size=100)
        b = rng.integers(0, t.n_nodes, size=100)
        assert (t.hops(a, b) <= 2 + 2 + 1).all()  # half of each dimension

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TorusTopology((0, 4))
