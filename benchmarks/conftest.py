"""Shared fixtures of the table tests.

Every file here regenerates one of the repository's deterministic
artefacts (a paper figure's series, an ablation, a simulated-clock
report), keeps its paper-anchor asserts, and compares the text
byte-for-byte with the blessed ``benchmarks/results/<name>.txt``.
Nothing here reads a host clock: what the Python costs the host is
``python3 -m bench``'s question (see ``bench/README.md``).
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def compare_result(tmp_path):
    """Callable: compare_result(name, text) fails unless ``text`` is the
    blessed table.  The new text is left under ``tmp_path``; blessing a
    deliberate change is ``cp`` of that file over the blessed one."""

    def _compare(name: str, text: str) -> None:  # repro: obs-flush
        blessed = RESULTS_DIR / f"{name}.txt"
        new = text + "\n"
        old = blessed.read_text() if blessed.exists() else ""
        if new == old:
            return
        out = tmp_path / f"{name}.txt"
        out.write_text(new)
        diff = "".join(
            difflib.unified_diff(
                old.splitlines(keepends=True),
                new.splitlines(keepends=True),
                fromfile=str(blessed),
                tofile=str(out),
            )
        )
        pytest.fail(
            f"{name} differs from the blessed {blessed}\n{diff}"
            f"to bless: cp {out} {blessed}",
            pytrace=False,
        )

    return _compare
