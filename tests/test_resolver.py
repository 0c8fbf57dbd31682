import pytest

from viewshift.corpus import load_fixture
from viewshift.lang import FunDecl, Project, Var, decl_expr_at
from viewshift.parse import parse_module
from viewshift.resolver import (
    DefRef, ResolveError, build_symbol_table, decl_reads, find_application, module_exports,
    occurrences_of, resolve_project, resolve_site, resolve_var, unused_imports,
)
from viewshift.refactorings import rename_top_level
from viewshift.script import COMMANDS


def _project(*sources: str) -> Project:
    mods = {}
    for src in sources:
        mod = parse_module(src)
        mods[mod.name] = mod
    return Project(mods)


def test_client_eval_resolves_to_evalmod(pfun):
    table = build_symbol_table(pfun)
    ref = resolve_var(table, pfun, "Client", frozenset(), Var("eval"))
    assert (ref.module, ref.name) == ("EvalMod", "eval")


def test_duplicate_definition_rejected():
    # built directly; the parser rejects the same thing at parse time
    mod = parse_module("module M where\nf = 1")
    from viewshift.lang import replace
    bad = replace(mod, decls=mod.decls + mod.decls)
    with pytest.raises(ResolveError) as exc:
        resolve_project(Project({"M": bad}))
    assert exc.value.kind == "DuplicateDefinition"


def test_unresolved_name():
    p = _project("module M where\ng = h")
    with pytest.raises(ResolveError) as exc:
        resolve_project(p)
    assert exc.value.kind == "UnresolvedName"
    assert exc.value.name == "h"


def test_ambiguous_unqualified_name():
    p = _project(
        "module A where\nf = 1",
        "module B where\nf = 2",
        "module C where\nimport A\nimport B\ng = f",
    )
    with pytest.raises(ResolveError) as exc:
        resolve_project(p)
    assert exc.value.kind == "AmbiguousName"


def test_import_of_unknown_module():
    p = _project("module M where\nimport Nope\nf = 1")
    with pytest.raises(ResolveError):
        resolve_project(p)


def test_occurrences_of_eval(pfun):
    occ = occurrences_of(pfun, "EvalMod", "eval")
    assert len(occ) == 4
    assert [(o.module, o.decl) for o in occ] == [
        ("Client", "r2"), ("Client", "r4"), ("EvalMod", "eval"), ("EvalMod", "eval"),
    ]
    for o in occ:
        node = decl_expr_at(pfun.modules[o.module].decl(o.decl), o.path)
        assert isinstance(node, Var) and node.name == "eval"


def test_occurrences_of_unused_definition():
    p = _project("module M where\nf = 1\ng = 2")
    assert occurrences_of(p, "M", "f") == []


def test_occurrences_stable_under_rename_roundtrip(pfun):
    before = occurrences_of(pfun, "EvalMod", "eval")
    renamed = rename_top_level(pfun, "eval", "EvalMod", "fold1")
    # the renamed definition keeps the same occurrence sites (the enclosing
    # declaration of the recursive occurrences carries the new name)
    as_fold1 = occurrences_of(renamed, "EvalMod", "fold1")
    fix = lambda o: (o.module, "eval" if o.decl == "fold1" else o.decl, o.path)
    assert {fix(o) for o in as_fold1} == {(o.module, o.decl, o.path) for o in before}
    back = rename_top_level(renamed, "fold1", "EvalMod", "eval")
    after = occurrences_of(back, "EvalMod", "eval")
    assert set(before) == set(after)


def test_occurrences_shadowed_not_reported():
    p = _project("module M where\nf = 1\ng = let f = 2 in f\nh = f")
    occ = occurrences_of(p, "M", "f")
    assert [(o.decl) for o in occ] == ["h"]


def test_find_application_first_in_document_order():
    p = _project(
        "module M where\nf x y z = x\na = f 1 2 3\nb = f 4 5 6",
    )
    occ = find_application(p, "M", "f", 3)
    assert occ.decl == "a"


def test_find_application_exact_arity():
    p = _project("module M where\nf x y z = x\na = f 1 2 3")
    with pytest.raises(ResolveError) as exc:
        find_application(p, "M", "f", 99)
    assert exc.value.kind == "NoSuchApplication"
    # the inner 2-argument spine of a 3-argument call does not count
    with pytest.raises(ResolveError):
        find_application(p, "M", "f", 2)


def test_unused_imports(pfun):
    assert unused_imports(pfun, "Client") == []
    p = _project(
        "module A where\nf = 1",
        "module M where\nimport A\ng = 2",
    )
    assert unused_imports(p, "M") == ["A"]


def test_qualified_use_counts():
    p = _project(
        "module A where\nf = 1",
        "module M where\nimport A\ng = A.f",
    )
    assert unused_imports(p, "M") == []


@pytest.mark.parametrize("use", [
    "g = K 1",
    "g (K i) = i",
    "g x = case x of K i -> i",
    "data U = W T",
], ids=["con-app", "equation-pattern", "case-pattern", "data-arg-type"])
def test_constructor_use_counts(use):
    p = _project(
        "module E where\ndata T = K Int",
        f"module M where\nimport E\n{use}",
    )
    resolve_project(p)
    assert unused_imports(p, "M") == []


def test_resolution_deterministic(pfun):
    t1 = build_symbol_table(pfun)
    t2 = build_symbol_table(pfun)
    assert t1.scopes == t2.scopes


def test_constructor_saturation_checked():
    p = _project("module M where\ndata T = K Int\nf x = K x x")
    with pytest.raises(ResolveError):
        resolve_project(p)


def test_pattern_shape_checked():
    p = _project("module M where\ndata T = Add (T, T)\nf (Add x y) = x")
    with pytest.raises(ResolveError):
        resolve_project(p)


# --- resolve_site against the strict resolver it replaced ---

def _reference_resolve_var(table, project, module, bound, v):
    """The strict resolver as it read before resolve_site held it: the
    reference resolve_site is compared with."""
    if v.qualifier is not None:
        target = project.modules.get(v.qualifier)
        if target is None:
            raise ResolveError("UnresolvedName", module, v.name, f"unknown module {v.qualifier} in {v.qualifier}.{v.name}")
        if v.qualifier != module:
            mod = project.modules[module]
            if v.qualifier not in mod.imports:
                raise ResolveError(
                    "UnresolvedName", module, v.name,
                    f"{module} does not import {v.qualifier} (needed by {v.qualifier}.{v.name})",
                )
            if v.name not in module_exports(target):
                raise ResolveError("UnresolvedName", module, v.name, f"{v.qualifier} does not export {v.name}")
        elif target.decl(v.name) is None:
            raise ResolveError("UnresolvedName", module, v.name, f"{module} does not define {v.name}")
        return DefRef(v.qualifier, v.name, "fun")
    if v.name in bound:
        return None
    candidates = table.lookup(module, v.name)
    if not candidates:
        raise ResolveError("UnresolvedName", module, v.name, f"cannot resolve {v.name} in module {module}")
    if len(candidates) > 1:
        origins = ", ".join(c.module for c in candidates)
        raise ResolveError("AmbiguousName", module, v.name, f"{v.name} is ambiguous in module {module} (from {origins})")
    return candidates[0]


def _outcome(resolve, *args):
    """The definition resolve gives, or the kind, module, name and message
    of the ResolveError it raises."""
    try:
        return resolve(*args)
    except ResolveError as exc:
        return exc.kind, exc.module, exc.name, str(exc)


def _agree(project, module, qualifier, name):
    """resolve_site's outcome on a site, once seen to be the reference's."""
    table = build_symbol_table(project)
    got = _outcome(resolve_site, table, project, module, qualifier, name)
    assert got == _outcome(_reference_resolve_var, table, project, module, frozenset(), Var(name, qualifier))
    return got


SHIPPED = [
    ("pfun", "forward-script", "forward"), ("pdata", "reverse-script", "reverse"),
    ("scenario-mult", "scenario-mult", "reverse-mult"), ("scenario-derive", "scenario-derive", "forward-derive"),
]


@pytest.mark.parametrize("origin, scripts, name", SHIPPED, ids=[s[2] for s in SHIPPED])
def test_resolve_site_agrees_on_every_read_of_a_shipped_script(origin, scripts, name):
    # the fixture and each step's result: every global site a function
    # declaration reads, each of which denotes a definition
    project, sites = load_fixture(origin).project, 0
    for step in (None, *load_fixture(scripts).scripts[name].steps):
        if step is not None:
            project = COMMANDS[step.command][1](project, step)
        for mname, mod in project.modules.items():
            for d in mod.decls:
                for c in decl_reads(d).checks if isinstance(d, FunDecl) else ():
                    if c[0] == "var":
                        assert isinstance(_agree(project, mname, c[1], c[2]), DefRef)
                        sites += 1
    assert sites > 100


INVALID = _project(
    "module X (x) where\nx = 1\ny = 2",
    "module A where\nf = 1",
    "module B where\nf = 2",
    "module C where\nimport A\nimport B\nimport X\ng = 3",
)


@pytest.mark.parametrize("module, qualifier, name, kind, message", [
    ("C", "Nope", "x", "UnresolvedName", "unknown module Nope in Nope.x"),
    ("A", "X", "x", "UnresolvedName", "A does not import X (needed by X.x)"),
    ("C", "X", "y", "UnresolvedName", "X does not export y"),
    ("C", "C", "h", "UnresolvedName", "C does not define h"),
    ("C", None, "h", "UnresolvedName", "cannot resolve h in module C"),
    ("C", None, "f", "AmbiguousName", "f is ambiguous in module C (from A, B)"),
], ids=["unknown-module", "not-imported", "not-exported", "self-undefined", "unresolved", "ambiguous"])
def test_resolve_site_refuses_an_invalid_site_as_resolve_var_did(module, qualifier, name, kind, message):
    assert _agree(INVALID, module, qualifier, name) == (kind, module, name, message)


def test_resolve_var_is_resolve_site_for_a_name_not_bound():
    table = build_symbol_table(INVALID)
    assert _agree(INVALID, "C", "X", "x") == DefRef("X", "x", "fun")
    assert resolve_var(table, INVALID, "C", frozenset({"g"}), Var("g")) is None
    # a qualified name is global even where its bare name is bound
    assert resolve_var(table, INVALID, "C", frozenset({"g"}), Var("g", "C")) == DefRef("C", "g", "fun")
