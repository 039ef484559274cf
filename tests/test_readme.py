"""The README's library quick start runs as written and shows what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_and_the_energy_dissipates(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # in order, in one namespace: later blocks reuse earlier names
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"]["energy"].monotonicity == "nonincreasing"
    assert capsys.readouterr().out.startswith("-x1^2 - x2^2\n")
