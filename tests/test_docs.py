"""docs/API.md stays in step with the code it describes.

The ``explain()`` transcript is the first section ``python -m repro.experiments
--explain`` prints, and the backend table names exactly the registered
backends.
"""

from __future__ import annotations

import pathlib
import re

from repro.api import DEFAULT_REGISTRY
from repro.experiments.__main__ import explain_plans

API_DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


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
