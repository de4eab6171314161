"""The exact-compare helper itself: a one-character difference fails."""

from pathlib import Path

import pytest


def test_one_character_difference_fails_and_names_the_blessed_file(compare_result, tmp_path):
    blessed = Path(__file__).parent / "results" / "headline_scale.txt"
    text = blessed.read_text().removesuffix("\n")
    compare_result("headline_scale", text)  # the blessed text passes

    changed = text.replace("388", "389", 1)
    with pytest.raises(pytest.fail.Exception) as failure:
        compare_result("headline_scale", changed)
    message = str(failure.value)
    assert str(blessed) in message
    assert "-" in message and "+" in message and "389" in message
    # The new text is left next to the test's other temporaries, ready to cp.
    assert (tmp_path / "headline_scale.txt").read_text() == changed + "\n"
    assert blessed.read_text() == text + "\n"
