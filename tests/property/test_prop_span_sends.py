"""A tick's per-rank traffic counts, read off its message table ≡ a dense
``(R, R)`` reference.

The message table (:class:`~repro.arch.spike.MessageRows`) is the one
record of a tick's traffic: :meth:`SpanTick.sends` counts each rank's
messages and remote spikes off it, each sender's rows are one slice, and
the Reduce-Scatter counts its ``(src, dst)`` rows by destination.  Here
every one of those equals what a dense ``(sources, R)`` spike-count matrix
of the same keys says, from 1 to past 1,024 ranks, with the spikes both
many and few against ``R²``, for one span and through
:meth:`SpanTick.concat` of consecutive spans (the host-parallel pool's
path).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import RemoteSendBuffers
from repro.core.simulator import SpanTick
from repro.runtime.mpi import VirtualMpiCluster


@st.composite
def ticks(draw):
    """R, the spans' consecutive rank ranges and each spike's (src, dst)."""
    n_ranks = draw(st.one_of(st.integers(1, 64), st.integers(65, 1100), st.just(1024)))
    first = draw(st.integers(0, n_ranks - 1))
    stop = draw(st.integers(first + 1, n_ranks))
    inner = draw(st.lists(st.integers(first + 1, stop - 1), max_size=2, unique=True)
                 if stop - first > 1 else st.just([]))
    bounds = [first, *sorted(inner), stop]
    # Few spikes against R² at large R, many at small R, and empty ticks.
    n_spikes = draw(st.sampled_from([0, 1, 7, 200, 3000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(first, stop, n_spikes)
    # Some sources talk to themselves only (same-rank spikes, no message).
    dst = np.where(rng.random(n_spikes) < 0.3, src, rng.integers(0, n_ranks, n_spikes))
    return n_ranks, bounds, src, dst


def span_tick(n_ranks, lo, hi, src, dst):
    """The :class:`SpanTick` of ranks ``[lo, hi)`` after routing ``src``'s
    spikes to ``dst`` in two pushes."""
    mine = (src >= lo) & (src < hi)
    src, dst = src[mine], dst[mine]
    bufs = RemoteSendBuffers(range(lo, hi), n_ranks)
    cut = src.size // 2
    for part in (slice(None, cut), slice(cut, None)):
        keys = src[part] * n_ranks + dst[part]
        gid = np.arange(keys.size, dtype=np.int64)
        bufs.push(keys, gid, gid.astype(np.int32), np.ones(keys.size, dtype=np.int32))
    rows, local = bufs.flush()
    zeros = [0] * (hi - lo)
    return SpanTick(range(lo, hi), zeros, zeros, local.tolist(), rows)


@given(ticks())
@settings(max_examples=60, deadline=None)
def test_sends_and_the_reduce_scatter_equal_the_dense_reference(tick):
    n_ranks, bounds, src, dst = tick
    first, stop = bounds[0], bounds[-1]
    spikes = np.zeros((stop - first, n_ranks), dtype=np.int64)  # the dense reference
    np.add.at(spikes, (src - first, dst), 1)
    spikes[np.arange(stop - first), np.arange(first, stop)] = 0  # same-rank: no message
    sent = spikes != 0

    parts = [span_tick(n_ranks, lo, hi, src, dst) for lo, hi in zip(bounds, bounds[1:])]
    for span in [*parts, SpanTick.concat(parts)]:
        lo, hi = span.ranks.start, span.ranks.stop
        messages, remote = span.sends()
        assert messages.dtype == remote.dtype == np.int64
        assert messages.tolist() == sent[lo - first : hi - first].sum(axis=1).tolist()
        assert remote.tolist() == spikes[lo - first : hi - first].sum(axis=1).tolist()
        # Each sender's rows are one slice: its destinations, ascending.
        at = np.concatenate([[0], np.cumsum(messages)])
        rows = span.msgs
        for rank in range(lo, hi):
            mine = rows[at[rank - lo] : at[rank - lo + 1]]
            assert (mine.src == rank).all()
            dests = np.flatnonzero(sent[rank - first])
            assert mine.dst.tolist() == dests.tolist()
            assert mine.count.tolist() == spikes[rank - first, dests].tolist()
        assert len(rows) == int(messages.sum())

        cluster = VirtualMpiCluster(n_ranks)
        cluster.isend(rows)
        cluster.reduce_scatter()
        expected = cluster.reduce_scatter_fetch()
        assert expected.tolist() == sent[lo - first : hi - first].sum(axis=0).tolist()
