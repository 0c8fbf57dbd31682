import pytest

from viewshift.lang import Project, Var, decl_expr_at
from viewshift.parse import parse_module
from viewshift.resolver import (
    ResolveError, build_symbol_table, find_application, occurrences_of,
    resolve_project, resolve_var, unused_imports,
)
from viewshift.refactorings import rename_top_level


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
