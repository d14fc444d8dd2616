"""The byte-identity contract across commits: a fresh run of every model on
the criterion-7 fixtures reproduces tests/fingerprints.txt."""

from pathlib import Path

import pytest

import fingerprint

COMMITTED = Path(__file__).with_name("fingerprints.txt")


def test_outputs_match_committed_fingerprints(tmp_path):
    expected = COMMITTED.read_text(encoding="utf-8").splitlines()
    if expected[0] != fingerprint.header():
        pytest.skip(f"fingerprints were made on '{expected[0]}', this is "
                    f"'{fingerprint.header()}'; bits may differ across numpy or machines")
    actual = fingerprint.lines(tmp_path)
    known = set(expected)
    changed = [line for line in actual if line not in known]
    assert actual == expected, f"{len(changed)} fingerprints changed, first: {changed[:3]}"
