"""Every defaulted parameter of droidlens's public functions and classes
is passed by some call in the program (``src/`` or ``bench/``), every
public method is called there, and every field of a public dataclass is
read there outside its own class.

A keyword that only tests pass is an option no command can set, with
its own validation to keep; a case that needs another value is reached
by patching a module constant instead.  A method that only tests call
is code the program does not need; a test that wants it keeps it as a
helper of its own.  So is a record field that only tests read.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

# Test seams and the credential: the API key (also read from the
# environment) and the rate limiter's clock and sleep.
_ALLOWED = {("LabelOracle", name) for name in ("api_key", "clock", "sleep")}
# Records whose fields only tests read: the tests compare GmmModel's EM
# parameters with those of a reference EM.
_UNREAD_FIELDS_ALLOWED = {"GmmModel"}


def _defaulted(fn: ast.FunctionDef, bound: bool):
    """(name, call position or None if keyword-only) per defaulted
    parameter; a bound method's calls do not pass its first one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _public_parameters():
    """(callee name, parameter, call position) for each module-level
    public function, public class constructor and public method."""
    for path in sorted((_ROOT / "src" / "droidlens").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for name, pos in _defaulted(node, bound=False):
                    yield node.name, name, pos
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        callee = node.name
                    elif not item.name.startswith("_"):
                        callee = item.name
                    else:
                        continue
                    for name, pos in _defaulted(item, bound=True):
                        yield callee, name, pos


def _public_methods():
    """(class name, method name) for each public method of a public
    class; properties are read, not called, so they are left out."""
    for path in sorted((_ROOT / "src" / "droidlens").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not any(getattr(d, "id", None) == "property" for d in item.decorator_list)
                ):
                    yield node.name, item.name


def _public_dataclasses():
    """(class name, field names) for each public dataclass."""
    for path in sorted((_ROOT / "src" / "droidlens").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            # @dataclass or @dataclass(...)
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators):
                yield node.name, [
                    item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                ]


def _program_trees():
    for path in [*(_ROOT / "src").rglob("*.py"), *(_ROOT / "bench").rglob("*.py")]:
        yield ast.parse(path.read_text(encoding="utf-8"))


def _attribute_reads():
    """attribute name -> the top-level classes whose bodies read it as
    ``obj.name``, with "" for reads outside any class."""
    reads = {}
    for tree in _program_trees():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else ""
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, set()).add(owner)
    return reads


def _program_calls():
    """callee name -> [(positional argument count, keyword names)]."""
    calls = {}
    for tree in _program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((len(node.args), keywords))
    return calls


def test_no_public_keyword_is_test_only():
    calls = _program_calls()
    unused = sorted(
        f"{callee}({name}=)"
        for callee, name, pos in _public_parameters()
        if (callee, name) not in _ALLOWED
        and not any(
            name in keywords or (pos is not None and n_args > pos)
            for n_args, keywords in calls.get(callee, ())
        )
    )
    assert unused == []


def test_no_public_method_is_test_only():
    calls = _program_calls()
    unused = sorted(
        f"{cls}.{name}" for cls, name in _public_methods() if name not in calls
    )
    assert unused == []


def test_no_record_field_is_test_only():
    reads = _attribute_reads()
    unread = sorted(
        f"{cls}.{name}"
        for cls, fields in _public_dataclasses()
        if cls not in _UNREAD_FIELDS_ALLOWED
        for name in fields
        if not reads.get(name, set()) - {cls}
    )
    assert unread == []
