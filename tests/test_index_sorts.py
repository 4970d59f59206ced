"""Every index sort in droidlens orders tied keys the same way on every CPU.

numpy hands its default sort to SIMD kernels chosen for the machine,
and they order equal keys differently from its baseline kernel.  So
each ``argsort`` or ``argpartition`` call in ``src/`` passes
``kind="stable"``, or sits in a function of ``_ALLOWED``, whose value
says why the order of its ties never reaches a result.  ``lexsort``
is always stable and takes no ``kind``.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_ALLOWED = {
    "_rank_keys": "tied values get equal dense ranks, so their order never reaches a key",
    "birch_cut": "it sorts distinct first-row indices",
    "_draw_features": "its keys are 53-bit uniforms",
}


def _index_sorts():
    """(file:line, enclosing function, stable) per index sort in src/."""

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in ("argsort", "argpartition", "lexsort"):
                stable = name == "lexsort" or any(
                    kw.arg == "kind" and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "stable"
                    for kw in node.keywords
                )
                yield f"{path.name}:{node.lineno}", owner, stable
        for child in ast.iter_child_nodes(node):
            yield from visit(child, path, owner)

    for path in sorted((_ROOT / "src").rglob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path, None)


def test_index_sorts_are_stable_or_allowed():
    loose = [
        f"{where} in {owner}"
        for where, owner, stable in _index_sorts()
        if not stable and owner not in _ALLOWED
    ]
    assert loose == []


def test_every_allowed_function_still_sorts():
    # An entry whose sort is gone would let a new sort there through unread.
    owners = {owner for _, owner, stable in _index_sorts() if not stable}
    assert sorted(set(_ALLOWED) - owners) == []
