"""Rules checked on the library's source text."""

import ast
from pathlib import Path

import pytest

import pqlab

SRC = Path(pqlab.__file__).parent


def typing_isinstance_checks(source: str) -> list[str]:
    """Every isinstance or issubclass call of source whose class argument
    names a typing alias, by its line and text."""
    tree = ast.parse(source)
    aliases: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            aliases |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "typing"}
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"isinstance", "issubclass"}
            and len(node.args) == 2
        ):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            if (isinstance(kind, ast.Name) and kind.id in aliases) or (
                isinstance(kind, ast.Attribute)
                and isinstance(kind.value, ast.Name)
                and kind.value.id in modules
            ):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_check_finds_typing_aliases():
    source = (
        "import typing as t\n"
        "from collections.abc import Sequence\n"
        "from typing import Any, Mapping as M\n"
        "isinstance(a, M)\n"
        "isinstance(b, (int, t.Sequence))\n"
        "isinstance(c, Sequence)\n"
        "x: Any = None\n"
    )
    assert typing_isinstance_checks(source) == [
        "4: isinstance(a, M)",
        "5: isinstance(b, (int, t.Sequence))",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_runtime_isinstance_names_no_typing_alias(module):
    # isinstance against a typing alias gives the collections.abc answer by
    # a slower path; the oracles run one such check per query.
    assert typing_isinstance_checks((SRC / module).read_text()) == []
