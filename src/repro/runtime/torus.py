"""Torus interconnect topology.

Blue Gene/Q connects nodes in a five-dimensional torus (§VI-A); Blue Gene/P
uses a three-dimensional torus.  The topology gives the hop counts that
region placement (:mod:`repro.compiler.placement`) weighs its flows by.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.validation import check_positive


def dims_for_nodes(n_nodes: int, n_dims: int) -> tuple[int, ...]:
    """Choose near-cubic torus dimensions whose product is ``n_nodes``.

    Factorises greedily: repeatedly split the largest remaining factor.
    Always returns exactly ``n_dims`` dimensions (padding with 1s when the
    node count has too few factors).
    """
    check_positive("n_nodes", n_nodes)
    check_positive("n_dims", n_dims)
    dims = [n_nodes]
    while len(dims) < n_dims:
        dims.sort(reverse=True)
        head = dims[0]
        split = _largest_divisor_at_most(head, int(math.isqrt(head)))
        if split == 1:
            dims.append(1)
            continue
        dims[0] = head // split
        dims.append(split)
    dims.sort(reverse=True)
    return tuple(dims)


def _largest_divisor_at_most(n: int, bound: int) -> int:
    for d in range(min(bound, n), 0, -1):
        if n % d == 0:
            return d
    return 1


class TorusTopology:
    """A wrap-around grid of nodes with shortest-path hop metrics."""

    def __init__(self, dims: tuple[int, ...]) -> None:
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"invalid torus dims {dims}")
        self.dims = tuple(int(d) for d in dims)
        self.n_nodes = int(np.prod(self.dims))
        self._strides = np.array(
            [int(np.prod(self.dims[i + 1 :])) for i in range(len(self.dims))],
            dtype=np.int64,
        )

    @classmethod
    def for_nodes(cls, n_nodes: int, n_dims: int) -> "TorusTopology":
        return cls(dims_for_nodes(n_nodes, n_dims))

    def coords(self, node: int | np.ndarray) -> np.ndarray:
        """Node id(s) → coordinate array of shape (..., n_dims)."""
        node = np.asarray(node, dtype=np.int64)
        out = np.empty(node.shape + (len(self.dims),), dtype=np.int64)
        rem = node
        for i, d in enumerate(self.dims):
            out[..., i] = (rem // self._strides[i]) % d
        return out

    def hops(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        """Shortest wrap-around (Manhattan-on-torus) distance."""
        ca, cb = self.coords(a), self.coords(b)
        diff = np.abs(ca - cb)
        wrap = np.array(self.dims) - diff
        return np.minimum(diff, wrap).sum(axis=-1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TorusTopology(dims={self.dims})"
