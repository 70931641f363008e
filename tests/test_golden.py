"""Golden-output tests: exact stdout bytes of small CLI runs.

The fixtures in golden_cli.json were recorded once from the CLI before the
Monte Carlo estimators were folded onto one sampling primitive.  They are the
regression oracle for that kind of refactor and must not be regenerated to
make a change pass: a difference here means the numbers changed.
"""

import json
from pathlib import Path

import pytest

from melonic.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes(name, capsys):
    case = GOLDEN[name]
    assert main(case["argv"].split()) == 0
    assert capsys.readouterr().out == case["stdout"]
