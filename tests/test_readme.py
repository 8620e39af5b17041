"""The README's library example runs as written, and the names, commands, flags and
config it cites are the package's."""

import argparse
import importlib
import json
import pkgutil
import re
from pathlib import Path

import risbeam
from risbeam.cli import build_parser
from risbeam.experiments import config_from_dict, desk_snr_sweep

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced(section: str, lang: str) -> str:
    """The one fenced ``lang`` block of a README section."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(_fenced("Library example", "python"), str(README), "exec"), {})
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


def test_cli_block_names_real_subcommands_and_flags():
    # each line that starts with "risbeam" names a subcommand; its flags run on
    # to the next such line
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    cited = []
    for line in _fenced("CLI", "").splitlines():
        if line.startswith("risbeam "):
            cited.append((line.split()[1], []))
        cited[-1][1].extend(re.findall(r"--[\w-]+", line))
    assert {name for name, _ in cited} == set(subcommands)
    missing = [f"{name} {flag}" for name, flags in cited for flag in flags
               if flag not in subcommands[name]._option_string_actions]
    assert not missing


def test_config_example_is_the_desk_snr_preset():
    assert config_from_dict(json.loads(_fenced("Experiment configs", "json"))) == desk_snr_sweep()
