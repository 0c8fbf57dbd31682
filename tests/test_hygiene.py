"""Static hygiene of the package, with the stdlib ast module only: no module
imports a name it never uses, no private module-level function or class goes
unreferenced in the package, and no public one, nor any method of a package
class, goes unreferenced in the package, its tests and its benchmark. Also:
the object-language AST is immutable, which the resolver's identity-keyed
derivation relies on, and derived state lives on AST and project objects
only, never in a module-level cache."""

import ast
import importlib
import typing
from collections import Counter
from pathlib import Path

from viewshift import evaluator, lang, resolver, rewrite
from viewshift.script import run_script

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "viewshift"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> Counter:
    """How often each name is read in the tree, as a bare name or attribute."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _all_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            assert isinstance(node.value, (ast.List, ast.Tuple)), "__all__ is not a list or tuple display"
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for each import, __future__ imports excluded."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
    return out


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = _tree(path)
        used = set(_used_names(tree)) | _all_names(tree)
        unused += [
            f"{path.relative_to(PACKAGE)}:{line}: {name}"
            for name, line in _imported(tree) if name not in used
        ]
    assert unused == []


def _references(trees, strings: bool = False) -> Counter:
    """How often each name is read or imported in the trees, and with
    strings=True also how often it is a string constant."""
    out: Counter = Counter()
    for tree in trees:
        out += _used_names(tree)
        out.update(name for name, _ in _imported(tree))
        if strings:
            out.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            )
    return out


def _unreferenced(referenced: Counter, private: bool) -> list[str]:
    """The package's module-level functions and classes, private or public,
    that nothing references. A definition's references to itself
    (recursion) do not keep it alive."""
    return [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.name}"
        for path in SOURCES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private and not node.name.startswith("__")
        and referenced[node.name] == _used_names(node)[node.name]
    ]


def test_no_unreferenced_private_definitions():
    referenced = _references(_tree(path) for path in SOURCES)
    assert _unreferenced(referenced, private=True) == []


def _references_everywhere() -> Counter:
    """References in the package, its tests and its benchmark. String
    constants count: bench/tracer.py wraps functions by name."""
    files = [p for d in ("src", "tests", "bench") for p in (PACKAGE.parents[1] / d).rglob("*.py")]
    return _references((_tree(path) for path in files), strings=True)


def test_no_unreferenced_public_definitions():
    assert _unreferenced(_references_everywhere(), private=False) == []


def test_no_unreferenced_methods():
    # By name, as above: a method is kept alive by any read of its name
    # other than its own recursive calls. Special methods are called implicitly.
    referenced = _references_everywhere()
    assert [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {cls.name}.{node.name}"
        for path in SOURCES
        for cls in _tree(path).body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        and referenced[node.name] == _used_names(node)[node.name]
    ] == []


def _classes_in(hint) -> list[type]:
    """The classes a type hint names, through Optional, tuple[...] and the like."""
    if isinstance(hint, type) and not typing.get_args(hint):
        return [hint]
    origin = typing.get_origin(hint)
    out = [origin] if isinstance(origin, type) else []
    for arg in typing.get_args(hint):
        if arg is not Ellipsis:
            out += _classes_in(arg)
    return out


def _is_record(cls: type) -> bool:
    """Whether cls went through lang.record: its own __match_args__ name the
    fields it annotates, and it has its own __init__, __eq__, __hash__ and
    __repr__."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    own = {"__init__", "__eq__", "__hash__", "__repr__", "__match_args__"}
    return own <= cls.__dict__.keys() and cls.__match_args__ == fields


def _assignment_raises(cls: type) -> bool:
    """Whether an instance refuses to assign or delete each field and to
    assign a new attribute, and keeps its fields as built."""
    fields = cls.__match_args__
    obj = cls(*range(len(fields)))
    changes = [lambda f=f: setattr(obj, f, None) for f in fields + ("extra",)]
    for change in changes + [lambda f=f: delattr(obj, f) for f in fields]:
        try:
            change()
            return False
        except AttributeError:
            pass
    return vars(obj) == dict(zip(fields, range(len(fields))))


def test_ast_reachable_from_module_is_frozen_and_immutable():
    seen: set[type] = set()
    todo = [lang.ModuleDef]
    faults = []
    while todo:
        cls = todo.pop()
        if cls in seen or cls.__module__ != lang.__name__:
            continue
        seen.add(cls)
        todo += cls.__subclasses__()  # an abstract base stands for its subclasses
        if not _is_record(cls):
            if not cls.__subclasses__():
                faults.append(f"{cls.__name__} is not a record")
            continue
        if not _assignment_raises(cls):
            faults.append(f"{cls.__name__} is not frozen")
        for name, hint in typing.get_type_hints(cls).items():
            for kind in _classes_in(hint):
                if kind in (list, dict, set):
                    faults.append(f"{cls.__name__}.{name} holds a {kind.__name__}")
                todo.append(kind)
    assert {lang.Var, lang.PCon, lang.LocalDef, lang.CommentBlock} <= seen
    assert faults == []


def test_reference_oracle_shares_only_values_with_the_evaluator():
    # reference.py is the independent oracle the compiled evaluator is
    # checked against: it may share the value classes and how they print,
    # never the evaluator's machine, its observation or its compiler
    allowed = {
        "Value", "VInt", "VStr", "VCon", "VTuple", "VOutput", "VClosure",
        "show_value", "EvalError", "DEFAULT_BUDGET",
    }
    imported = []
    for node in ast.walk(_tree(PACKAGE / "reference.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "evaluator":
            imported += [a.name for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "evaluator" not in {part for a in node.names for part in a.name.split(".")}
    assert "show_value" in imported and set(imported) <= allowed


def test_no_module_level_caches(pfun, forward_script):
    # A module-level cache would be shared by every thread and every
    # project lineage; what the resolver, the rewriter and the evaluator
    # derive lives on the AST and project objects.
    _, log = run_script(pfun, forward_script, checked=True)
    assert log.ok
    bound = [
        f"{mod.__name__}.{name}"
        for mod in (resolver, rewrite, evaluator)
        for name, value in vars(mod).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    ]
    assert bound == []


def test_every_traced_function_exists():
    # bench/tracer.py wraps functions by name and fails at install time on a
    # name the package no longer defines; the traced benchmark run is the
    # only other place that would notice
    tracer = _tree(PACKAGE.parents[1] / "bench" / "tracer.py")
    wrapped = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    missing = [
        f"{layer}.{name}"
        for layer, names in ast.literal_eval(wrapped).items()
        for name in names
        if not callable(getattr(importlib.import_module(f"viewshift.{layer}"), name, None))
    ]
    assert missing == []
