"""CLI outputs against the files under tests/golden/.

Each command runs in-process through ``cli.main``.  The text between the
numbers must match exactly; each number must match within 1e-11
relative or 1e-13 absolute, so that round-off-sized values such as an
I_pair of 1e-16 may move (``regenerate_golden.mismatches``).
``regenerate_golden.py`` rewrites the files that fail it.
"""

import pytest

from regenerate_golden import CASES, mismatches, path, run


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run(CASES[name])
    assert code == 0
    with open(path(name)) as fh:
        want = fh.read()
    assert not mismatches(text, want)


def test_golden_comparison_catches_a_changed_digit():
    line = '"s3": 3.9335346082409144, "I_pair": 1.2e-16, "tag": "A3"'
    assert not mismatches(line, line.replace("9144", "9145"))  # 2.5e-17 relative
    assert not mismatches(line, line.replace("1.2e-16", "-3e-16"))
    assert mismatches(line, line.replace("3.93353", "3.93354"))
    assert mismatches(line, line.replace("A3", "A4"))
    assert mismatches(line, line.replace("tag", "tags"))
    assert mismatches(line + "\nx", line)
