"""The README's library example runs as written, and its lists match the code."""

import dataclasses
import pathlib
import re

import maxglm

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the drift its comment quotes
    assert namespace["series"].max_abs_energy_error() < 1e-14


def test_all_exports_resolve():
    missing = [name for name in maxglm.__all__ if not hasattr(maxglm, name)]
    assert missing == []


def test_readme_knobs_are_exactly_the_config_fields():
    text = README.read_text(encoding="utf-8")
    knobs = re.search(r"The knobs and their defaults:\n\n```\n(.*?)```", text, re.S)[1]
    keys = [line.split("=", 1)[0].strip() for line in knobs.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(maxglm.RunConfig)]


def test_readme_imports_exactly_the_exports():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    imported = re.search(r"from maxglm import \((.*?)\)", block, re.S)[1]
    assert {name.strip() for name in imported.split(",")} == set(maxglm.__all__)
