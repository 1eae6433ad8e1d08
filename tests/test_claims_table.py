"""The README claims table and the public surface of `abtorus` name the same things.

Every name the package exports has a row in the table, and every name in the
table's Functions column exists, so an export no claim needs cannot return
unannounced and the table cannot name code that is gone.
"""
import inspect
import re
from pathlib import Path

import abtorus

README = Path(__file__).parents[1] / "README.md"


def table_names() -> set[str]:
    """The backquoted names of the Functions column of the "Paper claims and code" table."""
    section = README.read_text().split("## Paper claims and code", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past header and rule
    assert rows, "no claims table in README.md"
    return {name for row in rows for name in re.findall(r"`(\w+)`", re.split(r"(?<!\\)\|", row)[2])}


def test_every_export_has_a_row():
    exports = {n for n, v in vars(abtorus).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert exports - table_names() == set()


def test_every_named_function_exists():
    assert {n for n in table_names() if not hasattr(abtorus, n)} == set()
