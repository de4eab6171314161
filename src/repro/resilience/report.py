"""Recovery-overhead accounting: what resilience costs a run.

The report answers the operational question the checkpoint-interval knob
poses: how much simulated time goes to checkpoints (paid always) versus
lost work and recovery (paid per failure)?  All quantities are simulated
seconds of the cost models here and of the heartbeat's nominal 1 ms tick,
never host time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.perf.report import format_table


@dataclass(frozen=True)
class CheckpointCostModel:
    """Simulated cost of writing/reading one coordinated checkpoint.

    A coordinated checkpoint quiesces the tick loop (one barrier's worth
    of coordination, folded into ``alpha_s``) and streams every rank's
    dynamic state to stable storage at ``bandwidth`` bytes/s per node,
    concurrently across ranks — so the wall cost is the *per-rank* state
    over the per-node bandwidth.
    """

    alpha_s: float = 0.05
    bandwidth: float = 1.0e9

    def checkpoint_time(self, nbytes_per_rank: float) -> float:
        return self.alpha_s + nbytes_per_rank / self.bandwidth

    def restore_time(self, nbytes_per_rank: float) -> float:
        return self.alpha_s + nbytes_per_rank / self.bandwidth


@dataclass(frozen=True)
class FailureRecord:
    """One detected failure and the cost of recovering from it."""

    kind: str
    tick: int
    ranks: tuple[int, ...]
    #: Completed ticks discarded by the rollback (tick - checkpoint tick).
    lost_ticks: int
    detect_s: float
    #: Reboot backoff (restart policy) or spare activation (spare policy).
    wait_s: float
    restore_s: float
    #: Simulated cost of re-executing the discarded ticks (0: a functional
    #: run has no modelled tick time to charge).
    replay_s: float

    @property
    def time_to_recover_s(self) -> float:
        return self.detect_s + self.wait_s + self.restore_s + self.replay_s


@dataclass
class RecoveryReport:
    """Everything the resilience machinery did to one run."""

    checkpoint_interval: int
    policy: str
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    duplicates_discarded: int = 0

    # -- bookkeeping (driver-facing) -----------------------------------------

    def note_checkpoint(self, tick: int, cost_s: float) -> None:
        self.checkpoints.append((tick, cost_s))

    def note_failure(self, record: FailureRecord) -> None:
        self.failures.append(record)

    # -- derived quantities ----------------------------------------------------

    @property
    def n_checkpoints(self) -> int:
        return len(self.checkpoints)

    @property
    def checkpoint_overhead_s(self) -> float:
        return sum(cost for _, cost in self.checkpoints)

    @property
    def lost_ticks(self) -> int:
        return sum(f.lost_ticks for f in self.failures)

    @property
    def time_to_recover_s(self) -> float:
        return sum(f.time_to_recover_s for f in self.failures)

    @property
    def total_overhead_s(self) -> float:
        return self.checkpoint_overhead_s + self.time_to_recover_s

    def format(self) -> str:
        """Human-readable report (printed by ``resilience inject``)."""
        rows = [
            ("checkpoints taken", self.n_checkpoints, ""),
            (
                "checkpoint overhead",
                f"{self.checkpoint_overhead_s:.4f}",
                "s (simulated)",
            ),
            ("failures recovered", len(self.failures), ""),
            ("lost ticks (replayed)", self.lost_ticks, ""),
            (
                "time to recover",
                f"{self.time_to_recover_s:.4f}",
                "s (simulated)",
            ),
            ("duplicates discarded", self.duplicates_discarded, ""),
            ("total overhead", f"{self.total_overhead_s:.4f}", "s (simulated)"),
        ]
        table = format_table(
            ["quantity", "value", "unit"],
            rows,
            title=(
                f"recovery overhead (interval={self.checkpoint_interval} "
                f"ticks, policy={self.policy})"
            ),
        )
        if self.failures:
            frows = [
                (
                    f.kind,
                    f.tick,
                    ",".join(str(r) for r in f.ranks) or "-",
                    f.lost_ticks,
                    f"{f.detect_s:.4f}",
                    f"{f.wait_s:.4f}",
                    f"{f.restore_s:.4f}",
                    f"{f.replay_s:.4f}",
                )
                for f in self.failures
            ]
            table += "\n\n" + format_table(
                [
                    "failure",
                    "tick",
                    "ranks",
                    "lost",
                    "detect_s",
                    "wait_s",
                    "restore_s",
                    "replay_s",
                ],
                frows,
                title="per-failure breakdown",
            )
        return table


def spike_digest(recorder) -> str:
    """sha256 of a canonically sorted spike trace.

    The currency of the bit-determinism contract: a faulted-and-recovered
    run must produce the same digest as an uninterrupted run of the same
    seed (see ``tests/integration/test_recovery_determinism.py``).
    """
    h = hashlib.sha256()
    for arr in recorder.to_arrays():
        h.update(arr.tobytes())
    return h.hexdigest()
