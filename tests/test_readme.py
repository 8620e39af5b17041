"""The README's library example runs as written, and the package names it cites exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import risbeam

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


def test_cited_module_names_resolve():
    # every backticked `module.name` whose module is a risbeam module (outside
    # fenced blocks) names an attribute of it, so a removed name fails here
    modules = {m.name for m in pkgutil.iter_modules(risbeam.__path__)} - {"__main__"}
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    cited = {(module, name) for span in re.findall(r"`([^`\n]+)`", text)
             for module, name in re.findall(r"(?<![\w./])(\w+)\.(\w+)", span)
             if module in modules}
    assert len(cited) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"risbeam.{module}"), name)]
    assert not missing
