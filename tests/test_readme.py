"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    bs_index, ris_index, pilots = (int(field) for field in first.split())
    assert 1 <= bs_index <= 16 and 1 <= ris_index <= 64 and pilots == 48
    assert second.startswith("truth ")
