"""The run memo changes host time only.

A drawn job stream — three batch keys, 1-60 ticks, arrivals on a grid of
half a setup so that same-key batches of different lengths are common —
is served with ``RUN_MEMO_TICKS`` at 0 (nothing is ever remembered), at
64 (entries are evicted and over-size runs pass through) and at the
default.  Everything the service reports must be the same bytes: the
``LatencyReport`` JSON, every job's launch / finish / batch, every batch
record and ``peak_state_nbytes``.  Both in-process backends at 1 and 4
processes; the reports are layout-invariant, so all twelve runs of one
stream are compared with each other.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import server as server_module
from repro.serve.jobs import JobSpec
from repro.serve.loadgen import LatencyReport, build_report
from repro.serve.server import RUN_MEMO_TICKS, ServeConfig, SimServer

GRID_US = 10_000.0
LAYOUTS = [(b, p) for b in ("mpi", "pgas") for p in (1, 4)]

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
    with mock.patch.object(server_module, "RUN_MEMO_TICKS", bound):
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
        assert server._memo_ticks <= bound
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
        for bound in (0, 64, RUN_MEMO_TICKS)
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
    assert serve(stream, "mpi", 1, RUN_MEMO_TICKS)[1] == 2


@pytest.mark.parametrize("bound", [0, 64, RUN_MEMO_TICKS])
def test_fault_armed_first_launch_is_the_same_at_every_bound(bound):
    """The armed launch runs under the resilient runner whatever is
    remembered, and the later, fault-free launches of its key are charged
    nothing extra.  The numbers are the parent commit's (8ec265c)."""
    from repro.resilience.faults import FaultSchedule, RankCrash

    stream = [(0, 20, 0, "a"), (0, 12, 3, "b"), (0, 20, 3, "a")]
    (report, jobs, batches, _), _ = serve(
        stream, "mpi", 4, bound,
        fault_schedule=FaultSchedule([RankCrash(tick=5, rank=1)]), checkpoint_interval=5,
    )
    charged = [(1, 703032.6880000002), (0, 0.0), (0, 0.0)]
    assert [(b[6], b[7]) for b in batches] == charged
    assert [(j[5], j[6]) for j in jobs] == charged
    parsed = LatencyReport.from_json(report)
    assert (parsed.retries, parsed.p50_us, parsed.p99_us) == (1, 31026.0, 734058.6880000002)
