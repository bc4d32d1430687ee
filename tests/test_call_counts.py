"""Each result is computed once: solves and basis builds counted per command."""

from collections import Counter

import pytest

from mub3q import cli, mub, reference

from test_cli import SEED_M3


@pytest.fixture
def calls(monkeypatch):
    """Count calls of reference.solve_example and mub.eigenbasis."""
    counts = Counter()
    for module, name in ((reference, "solve_example"), (mub, "eigenbasis")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_run_all_checks_solves_and_builds_once(calls):
    checks = reference.run_all_checks()
    assert len(checks) == 60
    # one solve per example; nine bases for each of the six example tables
    assert calls == {"solve_example": 4, "eigenbasis": 54}


@pytest.mark.parametrize("argv", [["classify", *SEED_M3], ["verify", *SEED_M3, "--amplitudes"]],
                         ids=["classify", "verify-amplitudes"])
def test_seed_commands_build_nine_bases(calls, argv, capsys):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"eigenbasis": 9}
