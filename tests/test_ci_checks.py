"""The CI checks script fails when one of its expectations breaks."""
import pytest

import ci_checks


def test_a_ci_check_fails_when_its_expected_witness_changes(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    ci_checks.one_flaw_order()
    monkeypatch.setitem(ci_checks.FLAW_VERDICTS, "comp",
                        ("composability domain violated", [1, 2]))
    with pytest.raises(AssertionError):
        ci_checks.one_flaw_order()
