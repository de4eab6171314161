"""Fold a two-sided run's event log from four instants a message to one.

A traced MPI message used to be four instants: ``mpi.isend`` and one
``mailbox.deliver`` a queued copy on the send, then an ``mpi.iprobe`` hit
and an ``mpi.recv`` on the receive.  It is now one ``mpi.msg`` on the
sender's track.  This script maps a log of the older contract onto the
newer one, so that the digests in ``exchange_digests.json`` were re-derived
from the older logs and not from the new code's own output::

    PYTHONPATH=src python tests/unit/golden/fold_mpi_msg.py OLD/events.jsonl NEW_DIR

writes ``NEW_DIR/events.jsonl`` and ``NEW_DIR/trace.json``.  The fold:

1. each ``mpi.isend`` and the ``mailbox.deliver`` records right after it
   become one ``mpi.msg`` with the isend's ``dest`` and ``bytes``, the last
   copy's ``depth``, and ``dup: true`` when a copy was a duplicate;
2. the ``mpi.iprobe`` hits and the ``mpi.recv`` records are deleted;
3. an ``mpi.iprobe`` miss moves ahead of the ``network`` spans of the
   ranks below it (the failing receive is traced before the simulator
   closes the ranks that received);
4. the per-tick sequencer is re-run: instants and begin / end records take
   their window's slots again, in the new order.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs import write_chrome_trace, write_event_log
from repro.obs.jsonl import read_event_log
from repro.obs.span import PHASES, SEQ_DT_US, SpanTracer


def _slot(rec: dict) -> tuple[float, int] | None:
    """A sequenced record's window start and sequence number, else ``None``."""
    if rec["ph"] not in ("i", "B", "E") or (rec["name"] == "tick" and rec["rank"] == -1):
        return None  # spans and the fixed-time tick summary take no slot
    windows = SpanTracer().window_us
    start = max(t0 for t0, _ in (windows(p, rec["tick"]) for p in PHASES) if t0 <= rec["ts"])
    seq = round((rec["ts"] - start) / SEQ_DT_US)
    assert start + seq * SEQ_DT_US == rec["ts"], rec
    return start, seq


def fold(records: list[dict]) -> list[dict]:
    out: list[dict] = []
    for rec in records:
        rec = {**rec, "slot": _slot(rec)}
        name, args = rec["name"], rec["args"]
        if name == "mpi.isend":
            out.append({**rec, "name": "mpi.msg", "args": dict(args)})
        elif name == "mailbox.deliver":
            msg = out[-1]
            assert msg["name"] == "mpi.msg" and msg["args"]["dest"] == rec["rank"], rec
            msg["args"]["depth"] = args["depth"]
            if args["dup"]:
                msg["args"]["dup"] = True
        elif name == "mpi.recv" or (name == "mpi.iprobe" and args["hit"]):
            continue
        elif name == "mpi.iprobe":  # the miss: ahead of the received ranks' spans
            at = len(out)
            while at and out[at - 1]["name"] == "network" and out[at - 1]["tick"] == rec["tick"]:
                at -= 1
            out.insert(at, rec)
        else:
            out.append(rec)
    seq = 0
    for rec in out:
        slot = rec.pop("slot")
        if slot is None:
            continue
        start, old = slot
        seq = 0 if old == 0 else seq  # a new tick's sequencer starts at 0
        assert seq <= old, rec
        rec["ts"] = start + seq * SEQ_DT_US
        seq += 1
    return out


def main(old_log: str, new_dir: str) -> None:
    tracer = SpanTracer()
    tracer.events = fold(read_event_log(old_log))
    out = Path(new_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_event_log(tracer, out / "events.jsonl")
    write_chrome_trace(tracer, out / "trace.json")


if __name__ == "__main__":
    main(*sys.argv[1:])
