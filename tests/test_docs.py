"""docs/API.md stays in step with the code it describes.

The ``explain()`` transcript is the first section ``python -m repro.experiments
--explain`` prints, the backend table names exactly the registered backends,
and every ``ServingConfig(...)`` in a Python example (here and in the README)
sets only fields the class has.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

from repro.api import DEFAULT_REGISTRY
from repro.experiments.__main__ import explain_plans
from repro.serving import ServingConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
API_DOC = ROOT / "docs" / "API.md"
README = ROOT / "README.md"


def test_explain_transcript_matches_the_generator():
    doc = API_DOC.read_text()
    block = re.search(r"without executing\nanything:\n\n```\n(.*?)\n```", doc, re.DOTALL)
    assert block is not None, "explain() transcript block not found"
    # Sections are separated by blank lines: an index header, then one
    # "--- label" line plus its transcript per canonical query shape.
    first_section = explain_plans("small").split("\n\n")[1]
    assert block.group(1) == first_section.split("\n", 1)[1]


def test_backend_table_names_the_registered_backends():
    doc = API_DOC.read_text()
    table = doc.split("## Capabilities and the registry", 1)[1].split("\n\n")[2]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert rows == DEFAULT_REGISTRY.names()


def test_serving_config_examples_use_existing_fields():
    fields = {field.name for field in dataclasses.fields(ServingConfig)}
    used = []
    for doc in (API_DOC, README):
        for block in re.findall(r"^```python\n(.*?)^```", doc.read_text(), re.M | re.S):
            if "ServingConfig(" not in block:
                continue
            calls = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call)]
            for call in calls:
                if getattr(call.func, "id", None) == "ServingConfig":
                    used += [(doc.name, keyword.arg) for keyword in call.keywords]
    assert used, "no ServingConfig(...) example found"
    assert [entry for entry in used if entry[1] not in fields] == []
