"""The run memo changes host time only.

A drawn job stream — three batch keys, 1-60 ticks, arrivals on a grid of
half a setup so that same-key batches of different lengths are common —
is served with ``RUN_MEMO_BYTES`` at 0 (nothing is ever remembered), at
:data:`SMALL` (one 30-tick run: entries are evicted and longer runs pass
through) and at the default.  Everything the service reports must be the
same bytes: the ``LatencyReport`` JSON, every job's launch / finish /
batch, every batch record and ``peak_state_nbytes``.  Both in-process
backends at 1 and 4 processes; the reports are layout-invariant, so all
twelve runs of one stream are compared with each other.

The same holds for a fleet, whose shards share one memo: a drawn stream
through three shards, one of them fault-armed, reports the same bytes at
every bound.  Underneath both, a run continued from a capture counts what
an unbroken run counts.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.quicknet import build_quickstart_network
from repro.core.config import CompassConfig
from repro.exec import make_adapter
from repro.resilience.faults import FaultSchedule, RankCrash
from repro.serve import server as server_module
from repro.serve.jobs import JobSpec
from repro.serve.loadgen import LatencyReport, build_report
from repro.serve.server import RUN_MEMO_BYTES, ServeConfig, SimServer
from repro.shard.fleet import build_fleet_report
from repro.shard.router import FleetConfig, ShardRouter

GRID_US = 10_000.0
LAYOUTS = [(b, p) for b in ("mpi", "pgas") for p in (1, 4)]
#: One remembered 30-tick run of a 4-core key: 6 KB of end state a core
#: plus 8 B a tick of counts.
SMALL = 4 * 6 * 1024 + 8 * 31
BOUNDS = (0, SMALL, RUN_MEMO_BYTES)

job_streams = st.lists(
    st.tuples(
        st.integers(0, 2),  # batch key: the network seed
        st.integers(1, 60),  # ticks
        st.integers(0, 3),  # arrival gap, in grid steps
        st.sampled_from(["a", "b"]),
    ),
    min_size=2,
    max_size=8,
)


def serve(stream, backend, processes, bound, **config):
    """Everything observable of one run of ``stream`` at memo bound ``bound``."""
    with mock.patch.object(server_module, "RUN_MEMO_BYTES", bound):
        server = SimServer(
            ServeConfig(
                workers=2,
                backend=backend,
                processes=processes,
                max_batch_size=4,
                max_batch_delay_us=GRID_US,
                **config,
            )
        )
        at_us = 0.0
        for seed, ticks, gap, tenant in stream:
            at_us += gap * GRID_US
            server.submit(JobSpec(tenant=tenant, cores=4, ticks=ticks, seed=seed), at_us=at_us)
        server.run()
        assert server.memo.nbytes <= bound
    jobs = [
        (j.job_id, j.status, j.launch_us, j.finish_us, j.batch_id, j.retries, j.overhead_us)
        for j in server.finished_jobs()
    ]
    batches = [
        (b.key, b.job_ids, b.launch_us, b.end_us, b.max_ticks, b.worker, b.retries, b.overhead_us)
        for b in server.batches
    ]
    memo = server.obs.registry.get("serve_run_memo_hits_total").total()
    return (build_report(server).to_json(), jobs, batches, server.peak_state_nbytes), memo


@given(job_streams)
@settings(max_examples=8, deadline=None)
def test_reports_do_not_depend_on_the_memo_bound(stream):
    seen = {
        (backend, processes, bound): serve(stream, backend, processes, bound)
        for backend, processes in LAYOUTS
        for bound in BOUNDS
    }
    (want, _), *rest = seen.values()
    for got, _ in rest:
        assert got == want
    for layout in LAYOUTS:
        assert seen[(*layout, 0)][1] == 0  # the 0 bound really is "no memo"


def test_the_drawn_streams_do_hit_the_memo():
    """The property above is not vacuous: a fixed stream of its shape hits."""
    stream = [(0, 31, 0, "a"), (1, 9, 0, "b"), (0, 17, 3, "a"), (0, 40, 3, "b"), (1, 9, 3, "a")]
    assert serve(stream, "mpi", 1, 0)[1] == 0
    assert serve(stream, "mpi", 1, RUN_MEMO_BYTES)[1] == 2


@pytest.mark.parametrize("bound", [0, 64, SMALL, 1 << 16, RUN_MEMO_BYTES])
def test_fault_armed_first_launch_is_the_same_at_every_bound(bound):
    """The armed launch runs under the resilient runner whatever is
    remembered, and the later, fault-free launches of its key are charged
    nothing extra.  The runner checkpoints every 10 ticks (its default),
    so the 20-tick launch pays for one checkpoint, at tick 10, besides the
    recovery.  64 B holds no run, 65,536 B two 4-core runs of any length
    drawn here."""
    stream = [(0, 20, 0, "a"), (0, 12, 3, "b"), (0, 20, 3, "a")]
    (report, jobs, batches, _), _ = serve(
        stream, "mpi", 4, bound,
        fault_schedule=FaultSchedule([RankCrash(tick=5, rank=1)]),
    )
    charged = [(1, 603016.304), (0, 0.0), (0, 0.0)]
    assert [(b[6], b[7]) for b in batches] == charged
    assert [(j[5], j[6]) for j in jobs] == charged
    parsed = LatencyReport.from_json(report)
    assert (parsed.retries, parsed.p50_us, parsed.p99_us) == (1, 31026.0, 634042.304)


# -- a fleet: three shards, one memo ----------------------------------------

#: The ring sends tenants a, d and f to shard 2, b and e to shard 1 (the
#: fault shard), c to shard 0; a queue deeper than 2 spills to a neighbour.
fleet_streams = st.lists(
    st.tuples(
        st.integers(0, 3),  # batch key: the network seed
        st.integers(1, 50),  # ticks
        st.integers(0, 3),  # arrival gap, in grid steps
        st.sampled_from("abcdef"),
    ),
    min_size=4,
    max_size=14,
)


def serve_fleet(stream, bound):
    """Everything observable of ``stream`` through a 3-shard fleet whose
    shard 1 crashes a rank in its first launch, and each shard's memo
    counters (hits, misses)."""
    with mock.patch.object(server_module, "RUN_MEMO_BYTES", bound):
        router = ShardRouter(
            FleetConfig(
                shards=3,
                hot_depth=2,
                fault_shard=1,
                serve=ServeConfig(
                    workers=2,
                    processes=4,
                    max_batch_size=4,
                    max_batch_delay_us=GRID_US,
                    fault_schedule=FaultSchedule([RankCrash(tick=3, rank=2)]),
                ),
            )
        )
        at_us = 0.0
        for seed, ticks, gap, tenant in stream:
            at_us += gap * GRID_US
            router.submit(JobSpec(tenant=tenant, cores=4, ticks=ticks, seed=seed), at_us=at_us)
        router.run()
        assert router.memo.nbytes <= bound
    jobs = [
        [(j.job_id, j.status, j.launch_us, j.finish_us, j.batch_id, j.retries) for j in s.finished_jobs()]
        for s in router.servers
    ]
    observed = (
        build_fleet_report(router).to_json(),
        router.routing_digest,
        jobs,
        [s.peak_state_nbytes for s in router.servers],
    )
    counters = [
        tuple(int(s.obs.registry.get(f"serve_run_memo_{n}_total").total()) for n in ("hits", "misses"))
        for s in router.servers
    ]
    return observed, counters


@given(fleet_streams)
@settings(max_examples=10, deadline=None)
def test_fleet_reports_do_not_depend_on_the_memo_bound(stream):
    (want, none), *rest = [serve_fleet(stream, bound) for bound in BOUNDS]
    assert all(hits == 0 for hits, _ in none)
    for got, _ in rest:
        assert got == want


def test_shards_hit_what_another_shard_ran():
    """The fleet property is not vacuous.  Shard 2 runs a key for 30 ticks;
    shard 0 asks for 20 of them, a hit, and counts the run's state in its
    peak; the fault shard's armed launch runs anyway; shard 0 then asks for
    40 and continues shard 2's run."""
    stream = [(0, 30, 0, "a"), (0, 20, 3, "c"), (0, 20, 3, "b"), (0, 40, 3, "c")]
    observed, counters = serve_fleet(stream, RUN_MEMO_BYTES)
    _, _, jobs, peaks = observed
    assert counters == [(1, 1), (0, 1), (0, 1)]
    assert peaks == [4 * 6 * 1024] * 3
    assert [j[-1] for j in jobs[1]] == [1]  # the fault shard's job was retried
    assert serve_fleet(stream, 0) == (observed, [(0, 2), (0, 1), (0, 1)])


# -- continuing a run -------------------------------------------------------


@given(
    seed=st.integers(0, 2**16),
    split=st.integers(0, 30),
    rest=st.integers(1, 30),
)
@settings(max_examples=6, deadline=None)
@pytest.mark.parametrize("backend, processes", LAYOUTS)
def test_a_restored_capture_continues_the_run(backend, processes, seed, split, rest):
    """``restore(capture at t)`` in a fresh adapter, then ``run(T - t)``,
    counts what ``run(T)`` from tick 0 counts, tick by tick, and ends in
    the same state."""
    network = build_quickstart_network(n_cores=4, seed=seed)
    config = CompassConfig(n_processes=processes)

    def fired(adapter, ticks):
        return [tm.fired for tm in adapter.run(ticks).metrics.per_tick]

    with make_adapter(backend) as whole:
        whole.prepare(network, config)
        want = fired(whole, split + rest)
        want_end = whole.capture()["blocks"]
    with make_adapter(backend) as first:
        first.prepare(network, config)
        head = fired(first, split)
        snap = first.capture()
    with make_adapter(backend) as second:
        second.prepare(network, config)
        second.restore({**snap, "per_tick": []})  # as the serve memo keeps it
        tail = fired(second, rest)
        got_end = second.capture()["blocks"]
    assert head + tail == want
    for got, ref in zip(got_end, want_end, strict=True):
        assert got.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(got[name], ref[name])
