"""Deterministic pseudo-random number generation.

The paper stresses (§II) that TrueNorth and Compass share *configurable-seed*
pseudo-random number generators so that the software simulator is bit-exact
with the hardware ("Compass has become the key contract between our hardware
architects and software algorithm/application designers").  We model the
hardware PRNG as a 32-bit linear congruential generator — simple enough to
be plausibly realised in hardware, and trivially reproducible.

Two implementations are provided with identical sequences:

* :class:`Lcg32` — a scalar stream, used by the readable scalar reference
  neuron implementation;
* :class:`LcgArray` — a NumPy-vectorised array of independent streams with
  *conditional advance*, used by the production vectorised neuron kernel.

Per-neuron streams are derived from a core seed with :func:`derive_seed`
(a SplitMix64-style mix; :func:`derive_seeds` is the same over arrays) so
that the draw order consumed by one neuron is independent of how many draws
its neighbours consume — this is what makes the scalar and vectorised
implementations bit-identical and the result independent of partitioning.
"""

from __future__ import annotations

import numpy as np

#: Numerical Recipes LCG multiplier/increment (32-bit).
LCG_A = 1664525
LCG_C = 1013904223
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SplitMix64 constants, used only for seed derivation.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """One SplitMix64 output step (pure-int, 64-bit wraparound)."""
    x = (x + _SM_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *indices: int) -> int:
    """Derive a well-mixed 32-bit seed from a base seed and index path.

    ``derive_seed(seed, core, neuron)`` gives every neuron its own stream.
    The derivation is associative-free on purpose: each index is folded in
    with a full SplitMix64 round, so the 64-bit *state* paths of ``(0, 1)``
    and ``(1, 0)`` collide with probability ~2**-64; the returned seed is
    the state's low 32 bits, so two seeds collide at ~2**-32 per pair.
    """
    state = _splitmix64(base & _MASK64)
    for idx in indices:
        state = _splitmix64(state ^ ((idx & _MASK64) * _SM_GAMMA & _MASK64))
    return state & _MASK32


def _u64(x) -> np.ndarray:
    """``x`` as ``uint64``, a Python int taken modulo 2**64 like the scalar's."""
    return np.asarray(x & _MASK64 if isinstance(x, int) else x, dtype=np.uint64)


def _splitmix64_u64(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` on ``uint64`` arrays (wrap-around is the mask)."""
    z = x + np.uint64(_SM_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
    return z ^ (z >> np.uint64(31))


def derive_seeds(base, *indices) -> np.ndarray:
    """:func:`derive_seed` over arrays: ``uint64`` result, every value < 2**32.

    The scalar is the specification and this is what builds every block:
    operands broadcast, so ``derive_seeds(core_seeds[:, None], arange(n))``
    is the ``(C, n)`` table of ``derive_seed(core_seeds[c], j)``, bit-exact
    for any ``uint64`` operands (``tests/property/test_prop_rng.py``).
    """
    with np.errstate(over="ignore"):  # 0-d operands warn where arrays wrap
        state = _splitmix64_u64(_u64(base))
        for idx in indices:
            state = _splitmix64_u64(state ^ (_u64(idx) * np.uint64(_SM_GAMMA)))
    return state & np.uint64(_MASK32)


class Lcg32:
    """Scalar 32-bit LCG stream: ``x <- (A*x + C) mod 2**32``.

    The *output* of a step is the new state's top bits; callers use
    :meth:`next_u32`, :meth:`next_u8`, or :meth:`next_float`.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK32

    def next_u32(self) -> int:
        """Advance one step and return the full 32-bit state."""
        self.state = (LCG_A * self.state + LCG_C) & _MASK32
        return self.state

    def next_u8(self) -> int:
        """Advance and return the top 8 bits (best-quality LCG bits)."""
        return self.next_u32() >> 24

    def next_float(self) -> float:
        """Advance and return a float uniform in ``[0, 1)``."""
        return self.next_u32() / 4294967296.0

    def bernoulli(self, threshold_u8: int) -> bool:
        """Advance and return ``True`` with probability ``threshold_u8/256``.

        This is the hardware-style comparison used for stochastic synapse
        and leak modes: draw 8 bits, compare against the magnitude.
        """
        return self.next_u8() < threshold_u8

    def clone(self) -> "Lcg32":
        c = Lcg32(0)
        c.state = self.state
        return c


class LcgArray:
    """A vector of independent LCG streams with conditional advance.

    State is held as ``uint64`` to avoid NumPy overflow warnings; only the
    low 32 bits are significant.  :meth:`advance` steps *only* the streams
    selected by a boolean mask, which is how the vectorised neuron kernel
    reproduces the scalar rule "a neuron consumes one draw per stochastic
    event it participates in".

    ``state`` is stepped in place and never rebound.  Every draw takes
    ``out=``; without it the result is a fresh array the caller owns.
    """

    __slots__ = ("state",)

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        self.state = seeds & np.uint64(_MASK32)

    @classmethod
    def from_base_seed(cls, base: int, shape: tuple[int, ...]) -> "LcgArray":
        """Create streams for every flat index of ``shape`` via derive_seed."""
        n = int(np.prod(shape)) if shape else 1
        return cls(derive_seeds(base, np.arange(n)).reshape(shape))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.state.shape

    def _step(self, mask: np.ndarray | None) -> None:
        """``x <- (A*x + C) mod 2**32`` on the selected lanes, in place."""
        s = self.state
        where = True if mask is None else np.asarray(mask, dtype=bool)
        np.multiply(s, np.uint64(LCG_A), out=s, where=where)
        np.add(s, np.uint64(LCG_C), out=s, where=where)
        np.bitwise_and(s, np.uint64(_MASK32), out=s, where=where)

    def advance(
        self, mask: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Step the selected streams; return the new 32-bit states.

        Unselected lanes keep their state and report their *old* state in
        the returned array (callers must apply the same mask to outputs).
        """
        self._step(mask)
        if out is None:
            return self.state.copy()
        np.copyto(out, self.state)
        return out

    def next_u8(
        self, mask: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Conditionally advance; return top-8-bit outputs (``uint32`` by default)."""
        self._step(mask)
        if out is None:
            out = np.empty(self.state.shape, dtype=np.uint32)
        return np.right_shift(self.state, np.uint64(24), out=out)

    def bernoulli(
        self,
        threshold_u8: np.ndarray,
        mask: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised hardware Bernoulli: draw < threshold (per lane).

        Lanes excluded by ``mask`` return False and do not advance.
        """
        hit = np.less(self.next_u8(mask), threshold_u8, out=out)
        if mask is not None:
            np.logical_and(hit, mask, out=hit)
        return hit

    def clone(self) -> "LcgArray":
        c = LcgArray(self.state.copy())
        return c

    def state_equal(self, other: "LcgArray") -> bool:
        return bool(np.array_equal(self.state, other.state))
