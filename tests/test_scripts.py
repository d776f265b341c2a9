"""The experiment scripts run in-process at small arguments, so that a
library name one of them reads cannot go away unseen.  ``output_digest.py``
is left out: it takes about a minute."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "args, line",
    [
        (["audit_tables.py", "3"], "joint verdicts over pair_corpus(3), 28 pairs:"),
        (["certify_instances.py", "2"], "K5 branch: 2 members, cases {1: 1, 2: 1}"),
        (["uniformicity_survey.py", "--lifts", "3"], "K3     none               2 "),
    ],
    ids=["audit_tables", "certify_instances", "uniformicity_survey"],
)
def test_exits_zero_with_known_line(monkeypatch, capsys, args, line):
    script = str(SCRIPTS / args[0])
    monkeypatch.setattr(sys, "argv", [script, *args[1:]])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(script, run_name="__main__")
    assert done.value.code == 0
    assert line in capsys.readouterr().out
