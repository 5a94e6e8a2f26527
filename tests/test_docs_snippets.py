"""Doc-drift guard: the Python shown in README.md and DESIGN.md must exist.

Every fenced ``python`` block has to byte-compile, and every name it takes
from the package — ``from repro... import X``, ``import repro...`` and
dotted ``repro.a.b`` references — has to resolve against the code in this
checkout, so renaming or removing a public name fails here instead of
leaving a quickstart that no longer runs.  Blocks are not executed: several
continue an earlier block's variables or need data files.

The prose is held to the same standard where it can be checked: a
backticked dotted reference that starts at a public ``repro`` name
(``VectorizedBackend.session_mode()``, ``repro.pipelines.serve``) has to
resolve, and a backticked ``.py`` path (``ingest/pool.py``,
``tests/ingest/test_pool.py``) has to exist under the repository root or
``src/repro``.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md")
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
INLINE_CODE = re.compile(r"`([^`\n]+)`")
#: ``Name.attr`` / ``Name.attr.more(...)`` — call arguments are not checked.
DOTTED_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
SOURCE_PATH = re.compile(r"(?:[\w.-]+/)+[\w.-]+\.py")


def _python_blocks():
    for name in DOCUMENTS:
        text = (REPO_ROOT / name).read_text()
        for match in FENCE.finditer(text):
            line = text.count("\n", 0, match.start()) + 2
            yield pytest.param(name, line, match.group(1), id=f"{name}:{line}")


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of *dotted*, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return
    raise ModuleNotFoundError(dotted)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _package_references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or (node.module or "").startswith("repro."):
                for alias in node.names:
                    yield f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.startswith("repro."):
                yield dotted


def test_documents_have_python_blocks():
    assert list(_python_blocks()), "no ```python blocks found; did the fences change?"


@pytest.mark.parametrize("document, line, code", _python_blocks())
def test_python_block_compiles_and_its_names_resolve(document, line, code):
    tree = ast.parse(code, filename=f"{document}:{line}")
    compile(tree, f"{document}:{line}", "exec")
    for reference in _package_references(tree):
        try:
            _resolve(reference)
        except (ModuleNotFoundError, AttributeError) as error:
            pytest.fail(
                f"{document} line {line}: `{reference}` does not resolve "
                f"({type(error).__name__}: {error})"
            )


def _prose_code_spans():
    """``(document, line, span)`` for inline code outside fenced blocks."""
    for name in DOCUMENTS:
        fenced = False
        for number, text in enumerate((REPO_ROOT / name).read_text().splitlines(), 1):
            if text.startswith("```"):
                fenced = not fenced
            elif not fenced:
                for match in INLINE_CODE.finditer(text):
                    yield name, number, match.group(1)


def _resolve_public(dotted: str) -> None:
    """Walk *dotted* from the package or one of its public names.

    A dataclass field without a default is not a class attribute, so it is
    looked up among the dataclass's fields instead.
    """
    first, *rest = dotted.split(".")
    if first == "repro":
        return _resolve(dotted)
    target = getattr(repro, first)
    for attribute in rest:
        if dataclasses.is_dataclass(target) and attribute in {
            field.name for field in dataclasses.fields(target)
        }:
            return
        target = getattr(target, attribute)


def test_prose_references_resolve():
    checked = 0
    stale = []
    for document, line, span in _prose_code_spans():
        if SOURCE_PATH.fullmatch(span):
            checked += 1
            if not any((root / span).exists() for root in (REPO_ROOT, REPO_ROOT / "src/repro")):
                stale.append(f"{document} line {line}: `{span}` is not a file in this checkout")
            continue
        match = DOTTED_NAME.fullmatch(span)
        if match is None:
            continue
        first = match.group(1).split(".")[0]
        if first != "repro" and (first.startswith("_") or not hasattr(repro, first)):
            continue
        checked += 1
        try:
            _resolve_public(match.group(1))
        except (ModuleNotFoundError, AttributeError) as error:
            stale.append(
                f"{document} line {line}: `{span}` does not resolve "
                f"({type(error).__name__}: {error})"
            )
    assert checked > 20, "the prose patterns matched almost nothing; did the style change?"
    assert not stale, "\n".join(stale)
