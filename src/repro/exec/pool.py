"""Host-parallel execution: simulated ranks on real cores.

:class:`ProcessPoolAdapter` spawns host worker processes
(:mod:`repro.exec.worker`), each owning a contiguous span of simulated
ranks as one :class:`~repro.core.simulator.RankSpan`, and drives them in
lock-step, a pipe each: one ``step`` command per tick, every reply gathered
before the next (the parent *is* the tick-boundary barrier), and inside
``run_ticks`` tick *t+1* sent before the parent accounts tick *t*.

One pipeline, remote blocks: the parent holds a real :class:`PgasCompass`
whose span is a :class:`_RemoteSpan` — where the blocks live is all
the pool changes.  Workers do the numeric
work, exchange spikes through shared-memory windows
(:mod:`repro.exec.windows`, sized here by :func:`window_capacity`)
and ship their span's :class:`SpanTick` with the rows' spike columns
left behind; the parent's ``step`` accounts it and puts those rows
through the real simulated cluster, so every metric, span and instant
is emitted by the code the in-process backends run and cannot drift
from it (the 1-vs-4-worker digest tests in ``tests/integration`` pin
this).  Host wall-clock accounting (``metrics.host``, utilization) is
measured and is outside the determinism contract.

Failure model: a worker that dies takes all its simulated ranks with it.
The parent liveness-polls while collecting stats and surfaces the death
as :class:`WorkerCrashError` — a :class:`FailureDetectedError` — so
:class:`ResilientRunner` checkpoint/rollback works unchanged; its
``restore`` respawns the pool and pushes the checkpointed block
snapshots back to fresh workers.

Unsupported with the pool: simulated fault schedules, which need
in-process access to backend internals that now live across process
boundaries (``supports_simulated_faults`` is False, so
:class:`ResilientRunner` refuses one).
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any

import numpy as np

from repro.arch.spike import SPIKE_WIRE_BYTES, MessageRows
from repro.core.config import CompassConfig
from repro.core.metrics import PhaseTimes
from repro.core.partition import Partition
from repro.core.pgas_simulator import PgasCompass
from repro.core.simulator import SpanTick
from repro.errors import ExecError, WorkerCrashError
from repro.exec.adapter import SimulatorAdapter, register_backend
from repro.exec.windows import SpikeWindow
from repro.exec.worker import WorkerSpec, send_specs, worker_main
from repro.obs import Observability
from repro.util.hostclock import host_perf_counter

#: Parent-side liveness poll period while waiting on worker results.
_POLL_S = 0.2
#: How long a worker gets to come up / answer a control command.
_CONTROL_TIMEOUT_S = 120.0


class _RemoteSpan:
    """Parent-side stand-in for the span, whose blocks live in the workers.

    Speaks the :class:`~repro.core.simulator.RankSpan` protocol:
    ``compute`` runs the workers for the tick and hands back their
    shipped ticks as one; the deliveries already happened over there.  Block
    state is the workers' to copy and to overwrite.
    """

    def __init__(self, pool: "ProcessPoolAdapter", partition: Partition) -> None:
        self._pool = pool
        self._partition = partition
        #: External input for the next ``step``, by owning worker: ``(gids, axons)`` or None.
        self._staged: list[tuple[np.ndarray, np.ndarray] | None] = [None] * pool.n_workers
        self.host = PhaseTimes()

    def inject(self, gids: np.ndarray, axons: np.ndarray, tick: int) -> None:
        """Stage a tick's input, which ``_apply_injections`` hands over in one call."""
        to = self._pool._hosts.rank_of_gid(self._partition.rank_of_gid(gids))
        for w in np.unique(to).tolist():
            self._staged[w] = (gids[to == w], axons[to == w])

    def _send_step(self, tick: int) -> None:
        staged, self._staged = self._staged, [None] * len(self._staged)
        self._pool._send([("step", tick, injections) for injections in staged])
        self._pool._in_flight = tick

    def compute(self, tick: int) -> SpanTick:
        """Gather tick ``tick``, sent unless in flight; in ``run_ticks``, send the next."""
        pool = self._pool
        if pool._in_flight != tick:
            self._send_step(tick)
        parts: list[SpanTick] = []
        self.host, hosts = PhaseTimes(), pool._hosts
        for w, reply in enumerate(pool._gather("tick", f"tick {tick}")):
            got, *counts, table, width, gids, neurons, host, cpu_s = reply
            if got != tick:
                raise pool._fail(f"protocol skew: expected tick {tick} stats, got tick {got}")
            table = np.frombuffer(table, np.int64).reshape(-1, 4)
            msgs = MessageRows(None, None, None, table, None, width)
            parts.append(SpanTick(range(*hosts.range_of_rank(w)), *counts, msgs, gids, neurons))
            pool.host_cpu_s += cpu_s
            # The workers' seconds are the tick's host phase times.
            self.host += PhaseTimes(*host)
        pool._in_flight = None
        if pool._ahead:
            pool._sim._apply_injections(tick + 1)
            self._send_step(tick + 1)
        return SpanTick.concat(parts)

    def deliver(self, *spikes: Any) -> None:
        """Nothing to do: the workers delivered the spikes these rows count."""

    def snapshot(self) -> list[dict[str, np.ndarray]]:
        pool = self._pool
        pool._send([("capture",)] * pool.n_workers)
        return [snap for snaps in pool._gather("state", "capture") for snap in snaps]

    def restore(self, snaps: list[dict[str, np.ndarray]]) -> None:
        """In place; a pool broken by a worker death respawns first."""
        pool = self._pool
        pool._respawn_if_broken()
        spans = (pool._hosts.range_of_rank(w) for w in range(pool.n_workers))
        pool._send([("restore", snaps[slice(*span)]) for span in spans])
        pool._gather("ok", "restore")


class _RemotePgasCompass(PgasCompass):
    """The parent's simulator: its span is a :class:`_RemoteSpan` of ``pool``."""

    def __init__(self, pool: "ProcessPoolAdapter", *args: Any, **kwargs: Any) -> None:
        self._pool = pool
        super().__init__(*args, **kwargs)

    def _make_span(self) -> _RemoteSpan:
        return _RemoteSpan(self._pool, self.partition)


def window_capacity(
    partition: Partition, hosts: Partition, worker: int, neurons_per_core: int
) -> int:
    """Bytes of spike window ``worker`` needs: the most one tick can put there.

    A neuron fires at most once a tick and has one target, so a worker
    receives at most one wire spike per neuron hosted elsewhere.
    """
    lo, hi = worker_cores(partition, hosts, worker)
    neurons_elsewhere = (partition.n_cores - (hi - lo)) * neurons_per_core
    return neurons_elsewhere * SPIKE_WIRE_BYTES


def worker_cores(partition: Partition, hosts: Partition, worker: int) -> tuple[int, int]:
    """The gids ``[lo, hi)`` of the cores host ``worker``'s simulated ranks own."""
    lo, hi = hosts.range_of_rank(worker)
    return partition.range_of_rank(lo)[0], partition.range_of_rank(hi - 1)[1]


class ProcessPoolAdapter(SimulatorAdapter):
    """Run simulated ranks on actual host cores via ``multiprocessing``.

    Workers exchange spikes through shared-memory windows
    (:mod:`repro.exec.windows`) and the parent steps a
    :class:`PgasCompass`, so the observability stream of ``pool`` is
    :class:`PgasAdapter`'s.  ``workers`` host processes run the simulated
    ranks (never more than there are ranks).
    """

    backend = "pool"
    supports_simulated_faults = False

    def __init__(self, obs: Observability | None = None, workers: int = 1) -> None:
        if workers < 1:
            raise ExecError(f"the pool needs at least one worker, got workers={workers}")
        self._obs_arg = obs
        self._workers_arg = workers
        self._broken = False
        self._procs: list[Any] = []
        #: The parent's end of each worker's duplex pipe.
        self._conns: list[Any] = []
        self._windows: list[SpikeWindow] = []
        #: The tick sent and not yet gathered; whether this one may send the next.
        self._in_flight: int | None = None
        self._ahead = False
        self._state_nbytes = 0
        self.host_cpu_s = 0.0
        self.host_wall_s = 0.0

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, network: Any, config: CompassConfig) -> "ProcessPoolAdapter":
        # spawn's own bootstrapping check, before any segment exists to leak
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            raise ExecError("cannot start a pool while this process is still bootstrapping")
        self.n_workers = min(self._workers_arg, config.n_processes)
        #: Simulated rank -> host worker, by the core -> rank rule.
        self._hosts = Partition(config.n_processes, self.n_workers)
        self._adopt(_RemotePgasCompass(self, network, config, obs=self._obs_arg))
        try:
            self._spawn()
        except BaseException:
            self._broken = True
            self.teardown()
            raise
        return self

    def _spawn(self) -> None:
        sim = self._sim
        ctx = multiprocessing.get_context("spawn")
        # One at a time: a failure part-way leaves the earlier segments
        # owned by this adapter, which teardown unlinks.
        for w in range(self.n_workers):
            capacity = window_capacity(
                sim.partition, self._hosts, w, sim.network.num_neurons
            )
            self._windows.append(SpikeWindow.create(ctx, w, capacity))
        specs = []
        for w in range(self.n_workers):
            conn, child = ctx.Pipe()
            self._conns.append(conn)
            # Small spawn arguments: a child that dies before reading them
            # leaves ``start`` blocked for good on a full pipe.
            proc = ctx.Process(
                target=worker_main,
                args=(child, self._windows),
                daemon=True,
                name=f"repro-exec-{self.backend}-{w}",
            )
            proc.start()
            # The worker holds the only other end: its exit reads as EOF.
            child.close()
            self._procs.append(proc)
            cores = sim.network.cores(*worker_cores(sim.partition, self._hosts, w))
            specs.append(WorkerSpec(w, self._hosts, sim.config.record_spikes, sim.partition, cores))
        # A thread sends the specs: a worker that dies or never reads blocks it, not us.
        writer = threading.Thread(target=send_specs, args=(self._conns, specs), daemon=True)
        writer.start()
        self._in_flight = None
        try:
            self._state_nbytes = sum(self._gather("ready", "startup"))
        finally:  # every worker read its spec, or the gather killed them all
            writer.join(_CONTROL_TIMEOUT_S)
        self._broken = False

    def _send(self, commands: list[tuple]) -> None:
        """One command to each worker, by id; a dead one's is left to the gather."""
        for conn, command in zip(self._conns, commands):
            try:
                conn.send(command)
            except ConnectionError:
                pass

    def _reply(self, w: int, phase: str) -> tuple:
        """Worker ``w``'s next reply, liveness-polling every worker."""
        conn, deadline = self._conns[w], host_perf_counter() + _CONTROL_TIMEOUT_S
        while not conn.poll(_POLL_S):
            dead = [v for v, p in enumerate(self._procs) if not p.is_alive()]
            if dead:
                self._on_worker_death(dead, phase)
            if host_perf_counter() > deadline:
                raise self._fail(f"pool timed out waiting for workers during {phase}")
        try:
            return conn.recv()
        except (EOFError, ConnectionError):  # its end closed: it died
            self._procs[w].join(timeout=5)  # repro: allow[DET106] host-side reaping
            self._on_worker_death([w], phase)

    def _gather(self, kind: str, phase: str) -> list[Any]:
        """The payload of one ``kind`` reply from every worker, by worker id."""
        replies = []
        for w in range(self.n_workers):
            got, payload = self._reply(w, phase)
            if got != kind:
                raise self._fail(
                    f"worker {w} failed during {phase}: {payload}" if got == "error" else
                    f"protocol skew during {phase}: expected {kind!r} from worker {w}, got {got!r}"
                )
            replies.append(payload)
        return replies

    def _fail(self, message: str) -> ExecError:
        """Give the workers up; returns the error for the caller to raise."""
        self._broken = True
        self._kill_workers()
        return ExecError(message)

    def _on_worker_death(self, dead_workers: list[int], phase: str) -> None:
        """A host worker vanished: tear the tick down, surface the loss."""
        dead_ranks: set[int] = set()
        codes = []
        for w in dead_workers:
            dead_ranks.update(range(*self._hosts.range_of_rank(w)))
            codes.append(self._procs[w].exitcode)
        self._broken = True
        self._kill_workers()
        raise WorkerCrashError(
            f"host worker(s) {dead_workers} died (exit {codes}) during "
            f"{phase}; simulated ranks {sorted(dead_ranks)} lost",
            ranks=tuple(sorted(dead_ranks)),
        )

    def _kill_workers(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5)  # repro: allow[DET106] host-side teardown

    def _release(self) -> None:
        """Kill every worker and free every shared segment, whatever the state."""
        self._kill_workers()
        for conn in self._conns:
            conn.close()
        for win in self._windows:
            win.unlink()
        self._procs, self._conns, self._windows = [], [], []

    def _respawn_if_broken(self) -> None:
        if self._broken:
            self._release()
            self._spawn()

    def teardown(self) -> None:
        if not self._broken:
            self._send([("stop",)] * len(self._conns))
            for proc in self._procs:
                proc.join(timeout=5)  # repro: allow[DET106] host-side teardown
        self._release()
        super().teardown()

    # -- fault injection (host level) ---------------------------------------

    def inject_worker_crash(self, tick: int, worker: int = 0) -> None:
        """Arm a one-shot hard crash of host ``worker`` at ``tick``."""
        self._live()
        if not 0 <= worker < self.n_workers:
            raise ExecError(f"no such worker {worker}")
        self._conns[worker].send(("crash_at", tick))

    # -- the tick ------------------------------------------------------------

    def run_ticks(self, n: int) -> None:
        """Advance ``n`` ticks, each but the last sending the next before the
        parent accounts it; an exception with one in flight breaks the pool."""
        try:
            for left in range(n - 1, -1, -1):
                self._ahead = left > 0
                self.step()
        except BaseException:
            self._broken |= self._in_flight is not None
            raise
        finally:
            self._ahead = False

    def step(self) -> Any:
        sim = self._sim
        if self._broken:
            raise ExecError(
                "pool is broken after a worker crash; restore() a "
                "checkpoint (or teardown) first"
            )
        wall0 = host_perf_counter()
        tm = sim.step()
        self.host_wall_s += host_perf_counter() - wall0
        return tm

    # -- checkpoint: ``capture`` / ``restore`` reach the workers via the span --

    def state_nbytes(self) -> int:
        self._live()
        return self._state_nbytes

    # -- observability -------------------------------------------------------

    def host_utilization(self) -> dict[str, float]:
        """Host-core usage of everything run so far.

        ``utilization`` is worker CPU seconds over parent wall seconds:
        1.0 means one core busy; ``n`` workers on ``n`` free cores
        approach ``n``.
        """
        self._live()
        wall = self.host_wall_s
        return {
            "workers": self.n_workers,
            "cpu_s": self.host_cpu_s,
            "wall_s": wall,
            "utilization": (self.host_cpu_s / wall) if wall > 0 else 0.0,
        }


register_backend("pool", ProcessPoolAdapter)
