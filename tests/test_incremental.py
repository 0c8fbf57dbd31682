"""Incremental resolution: the resolver derives each project's table,
importer map and pending modules from the project it was rewritten from,
re-scoping only the modules whose own declarations, imports or imports'
interfaces changed and re-validating only new declaration objects where a
scope was kept, and keeps each declaration's reads on the declaration
object; the evaluator keeps each compiled declaration on the declaration
object. These tests keep an importing module or declaration object
identical while what it reads changes, check incremental results against
resolution from scratch, and pin that one step pays only for the modules
whose inputs it changes, walks only the declarations it makes and
recompiles only the declarations it changes, and that a run keeps no
lineage of projects alive."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from viewshift import evaluator, refactorings, resolver, rewrite, script
from viewshift.corpus import load_fixture
from viewshift.evaluator import observe_entries
from viewshift.lang import (
    DataDecl, Project, decl_expr_at, decl_expr_roots, replace, rewritten, scoped_vars, with_module,
)
from viewshift.names import alpha_eq_project
from viewshift.parse import parse_module
from viewshift.reference import observe_entries_by_name
from viewshift.refactorings import RefactorError
from viewshift.render import render_module
from viewshift.resolver import (
    OccRef, ResolveError, build_symbol_table, decl_reads, module_scope, occurrences_of, project_state,
    readers_of, resolve_project, resolve_var,
)
from viewshift.rewrite import minimize_qualifiers
from viewshift.script import CATALOGUE, COMMANDS, RefactorStep, run_script


def _project(*texts: str) -> Project:
    mods = [parse_module(t) for t in texts]
    return Project({m.name: m for m in mods})


def _fresh(project: Project) -> Project:
    """The same project parsed again from its rendering: new objects, no memo."""
    return Project({m: parse_module(render_module(mod)) for m, mod in project.modules.items()})


# --- invalidation: the importer stays the same object ---

_A = "module A where\n\nimport B\nimport C\n\nr = {use} + 1\n"
_B = "module B where\n\ng = 1\n"
_C = "module C where\n\nk = 2\n"


@pytest.mark.parametrize("use", ["g", "B.g"])
def test_import_drops_export(use):
    p = _project(_A.format(use=use), _B, _C)
    resolve_project(p)
    b = p.modules["B"]
    p2 = with_module(p, replace(b, exports=()))
    assert p2.modules["A"] is p.modules["A"]
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert exc.value.kind == "UnresolvedName" and exc.value.module == "A"


@pytest.mark.parametrize("use", ["g", "B.g"])
def test_compiled_code_follows_its_imports(use):
    p = _project(_A.format(use=use), _B, _C)
    assert observe_entries(p, ["r"]) == {"r": "2"}
    changed = with_module(p, parse_module("module B where\n\ng = 5\n"))
    assert changed.modules["A"] is p.modules["A"]
    assert observe_entries(changed, ["r"]) == {"r": "6"}
    dropped = with_module(p, replace(p.modules["B"], exports=()))
    assert dropped.modules["A"] is p.modules["A"]
    errors = []
    for project in (dropped, _fresh(dropped)):
        with pytest.raises(ResolveError) as exc:
            observe_entries(project, ["r"])
        errors.append((exc.value.kind, exc.value.module, exc.value.name, str(exc.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("use", ["g", "B.g"])
def test_shared_declaration_resolves_in_each_project(use):
    # One FunDecl object r, in module A of two projects and in module D of a
    # third, where g names a different definition each time.
    p = _project(_A.format(use=use), _B, _C)
    a = p.modules["A"]
    projects = [
        p,
        with_module(p, parse_module("module B where\n\ng = 5\n")),
        Project({"D": replace(a, name="D"), "B": parse_module("module B where\n\ng = 7\n"),
                 "C": p.modules["C"]}),
    ]
    assert projects[2].modules["D"].decl("r") is a.decl("r")
    for project in projects + projects:  # cold, then with r compiled
        assert observe_entries(project, ["r"]) == observe_entries_by_name(project, ["r"])
    assert [observe_entries(q, ["r"]) for q in projects] == [{"r": "2"}, {"r": "6"}, {"r": "8"}]
    gone = [with_module(q, parse_module("module B where\n\nh = 1\n")) for q in (projects[0], projects[2])]
    for project in gone:
        errors = []
        for q in (project, _fresh(project)):
            with pytest.raises(ResolveError) as exc:
                observe_entries(q, ["r"])
            errors.append((exc.value.kind, exc.value.module, exc.value.name, str(exc.value)))
        assert errors[0] == errors[1]


def test_import_gains_clashing_name():
    p = _project(_A.format(use="g"), _B, _C)
    resolve_project(p)
    p2 = with_module(p, parse_module("module C where\n\nk = 2\n\ng = 3\n"))
    assert p2.modules["A"] is p.modules["A"]
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert exc.value.kind == "AmbiguousName" and exc.value.name == "g"


def test_import_becoming_ambiguous_keeps_the_qualifier():
    p = _project(_A.format(use="B.g"), _B, _C)
    resolve_project(p)
    assert "B.g" not in render_module(minimize_qualifiers(p).modules["A"])
    p2 = with_module(p, parse_module("module C where\n\nk = 2\n\ng = 3\n"))
    a = p2.modules["A"]
    assert a is p.modules["A"]
    resolve_project(p2)
    assert minimize_qualifiers(p2).modules["A"] is a  # B.g kept


def test_import_ceasing_to_be_ambiguous_drops_the_qualifier():
    p = _project(_A.format(use="B.g"), _B, "module C where\n\nk = 2\n\ng = 3\n")
    a = p.modules["A"]
    assert minimize_qualifiers(p).modules["A"] is a  # marked minimal with B.g
    p2 = with_module(p, parse_module(_C))
    assert "B.g" not in render_module(minimize_qualifiers(p2).modules["A"])


def _rederived(monkeypatch, project: Project) -> tuple[list, list]:
    """The modules scoped and the declarations validated while project's
    state is derived and it is resolved; the outcome is resolve_project's."""
    scoped, checked = [], []
    scope_of, check_decl = resolver._scope_of, resolver._check_decl

    def scoping(p, mod):
        scoped.append(mod.name)
        return scope_of(p, mod)

    def checking(table, p, mname, d):
        checked.append((mname, d))
        return check_decl(table, p, mname, d)

    with monkeypatch.context() as patch:
        patch.setattr(resolver, "_scope_of", scoping)
        patch.setattr(resolver, "_check_decl", checking)
        _outcome(resolve_project, project)
    return scoped, checked


def test_body_edit_changes_no_interface(monkeypatch):
    # early cutoff: B's new g has B's old interface, so neither A nor B is
    # scoped again and only the new g is validated
    p = _project(_A.format(use="g"), _B, _C)
    resolve_project(p)
    p2 = with_module(p, parse_module("module B where\n\ng = 5\n"))
    scoped, checked = _rederived(monkeypatch, p2)
    assert scoped == [] and checked == [("B", p2.modules["B"].decl("g"))]
    assert build_symbol_table(p2) is build_symbol_table(p)
    assert project_state(p2).importers is project_state(p).importers
    _assert_same_as_scratch(p2)


@pytest.mark.parametrize("use, b, edited, rescoped", [
    ("g", _B, "module B () where\n\ng = 1\n", ["A"]),  # B's own scope is unchanged
    ("case K 1 of K x -> x", "module B where\n\ndata T = K Int\n\ng = 1\n",
     "module B where\n\ndata T = K Int Int\n\ng = 1\n", ["A", "B"]),
], ids=["export-dropped", "constructor-arity"])
def test_interface_change_rescopes_the_importer(monkeypatch, use, b, edited, rescoped):
    # B's interface changes (g is no longer exported, or K takes two
    # arguments): A is scoped again and validated in full, and raises what
    # resolution from scratch raises
    p = _project(_A.format(use=use), b, _C)
    resolve_project(p)
    p2 = with_module(p, parse_module(edited))
    scoped, checked = _rederived(monkeypatch, p2)
    assert sorted(scoped) == rescoped and ("A", p.modules["A"].decl("r")) in checked
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert exc.value.module == "A"
    _assert_same_as_scratch(p2)


def test_export_set_is_part_of_the_interface(monkeypatch):
    # Dropping a declaration unchecked can leave B's export list naming h,
    # which B no longer declares; A's B.h resolves until h leaves the list,
    # which changes no visible definition, only the export set.
    b = parse_module("module B (g, h) where\n\ng = 1\n\nh = 2\n")
    p = with_module(_project(_A.format(use="B.h"), _B, _C), replace(b, decls=b.decls[:1]))
    resolve_project(p)
    p2 = with_module(p, replace(p.modules["B"], exports=("g",)))
    scoped, _ = _rederived(monkeypatch, p2)
    assert scoped == ["A"]
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert str(exc.value) == "B does not export h"
    _assert_same_as_scratch(p2)


def test_unchanged_project_reuses_its_results(pfun):
    p = _fresh(pfun)
    table = resolve_project(p)
    again = resolve_project(p)
    assert all(again.scopes[m] is table.scopes[m] for m in p.modules)
    assert all(a is b for a, b in zip(module_scope(p, "Client"), module_scope(p, "Client"), strict=True))


# --- invalidation: the declaration stays the same object ---
#
# Each case changes what declaration r of A reads while r stays the same
# object, in A itself (touched: A gains an unrelated declaration, so A is a
# new object too) or in an unchanged A.

def _touch(project: Project, m: str) -> Project:
    """project with module m given one more, unrelated declaration."""
    mod = project.modules[m]
    zz = parse_module("module X where\n\nzz = 0\n").decls[0]
    return with_module(project, replace(mod, decls=mod.decls + (zz,)))


def _same_outcomes_as_scratch(project: Project):
    """Resolution and minimisation give what they give on a fresh parse,
    errors and rendered text included."""
    _assert_same_as_scratch(project)
    fresh = _fresh(project)
    if _outcome(resolve_project, project)[0] == "ok":
        got, want = minimize_qualifiers(project), minimize_qualifiers(fresh)
        assert {m: render_module(x) for m, x in got.modules.items()} == \
            {m: render_module(x) for m, x in want.modules.items()}


def _keeps_r(before: Project, after: Project, m: str = "A"):
    r = before.modules[m].decl("r")
    assert after.modules[m].decl("r") is r and "_reads" in r.__dict__


@pytest.mark.parametrize("touched", [False, True], ids=["same-module", "touched-module"])
def test_declaration_meets_a_clashing_import(touched):
    p = _project(_A.format(use="g"), _B, _C)
    resolve_project(p)
    p2 = with_module(p, parse_module("module C where\n\nk = 2\n\ng = 3\n"))
    p2 = _touch(p2, "A") if touched else p2
    _keeps_r(p, p2)
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert exc.value.kind == "AmbiguousName" and exc.value.name == "g"
    _same_outcomes_as_scratch(p2)


@pytest.mark.parametrize("touched", [False, True], ids=["same-module", "touched-module"])
def test_declaration_loses_a_qualified_export(touched):
    p = _project(_A.format(use="B.g"), "module B (g, h) where\n\ng = 1\n\nh = 2\n", _C)
    resolve_project(p)
    p2 = with_module(p, replace(p.modules["B"], exports=("h",)))
    p2 = _touch(p2, "A") if touched else p2
    _keeps_r(p, p2)
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert str(exc.value) == "B does not export g"
    _same_outcomes_as_scratch(p2)


@pytest.mark.parametrize("data", [
    "data T = K Int",  # arity
    "data T = K (Int, Int)",  # tupledness
    "data T = K Int Int | J Int",  # K unchanged, a new constructor beside it
], ids=["arity", "tupled", "unchanged"])
@pytest.mark.parametrize("use", ["r = K 1 2", "r = case K 1 2 of K x y -> x", "r (K x y) = x"],
                         ids=["application", "case-pattern", "equation-pattern"])
def test_declaration_meets_a_changed_constructor(data, use):
    p = _project(f"module A where\n\nimport D\n\n{use}\n", "module D where\n\ndata T = K Int Int\n")
    resolve_project(p)
    p2 = _touch(with_module(p, parse_module(f"module D where\n\n{data}\n")), "A")
    _keeps_r(p, p2)
    _same_outcomes_as_scratch(p2)
    assert (_outcome(resolve_project, p2)[0] == "ok") == data.endswith("J Int")


@pytest.mark.parametrize("touched", [False, True], ids=["same-module", "touched-module"])
def test_declaration_qualifier_dropped_when_a_clash_disappears(touched):
    p = _project(_A.format(use="B.g"), _B, "module C where\n\nk = 2\n\ng = 3\n")
    assert minimize_qualifiers(p).modules["A"] is p.modules["A"]  # B.g needed
    p2 = with_module(p, parse_module(_C))
    p2 = _touch(p2, "A") if touched else p2
    _keeps_r(p, p2)
    out = minimize_qualifiers(p2)
    assert "r = g + 1" in render_module(out.modules["A"])
    _same_outcomes_as_scratch(p2)


def test_declaration_shared_by_two_modules():
    # One FunDecl object r in A and in E: g resolves in A, is ambiguous in
    # E, then the clash moves from E to A.
    p = _project(_A.format(use="g"), _B, _C, "module F where\n\ng = 4\n")
    a = p.modules["A"]
    e = replace(a, name="E", imports=("B", "F"))
    p = with_module(p, e)
    assert p.modules["E"].decl("r") is a.decl("r")
    _same_outcomes_as_scratch(p)
    with pytest.raises(ResolveError) as exc:
        resolve_project(p)
    assert (exc.value.kind, exc.value.module) == ("AmbiguousName", "E")
    p2 = with_module(with_module(p, replace(e, imports=("B", "C"))), replace(a, imports=("B", "F")))
    assert p2.modules["A"].decl("r") is p2.modules["E"].decl("r")
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert (exc.value.kind, exc.value.module) == ("AmbiguousName", "A")
    _same_outcomes_as_scratch(p2)
    p3 = with_module(p2, replace(a, imports=("B", "C")))
    resolve_project(p3)
    _same_outcomes_as_scratch(p3)


# --- incremental equals scratch ---

_NEW = ["aux", "tmp", "eval", "r1", "Const"]
_SPECS = {
    **{command: kinds for command, (_, kinds) in CATALOGUE.items()},
    # Not operations: edits made unchecked while importers stay the same
    # objects. drop-decl drops a declaration, which may leave the project
    # unresolvable; touch-decl puts in a new object for a declaration, with
    # the same interface; change-con gives a constructor visible in the
    # module one more argument type, in its home module.
    "drop-decl": ("fun", "mod"),
    "touch-decl": ("fun", "mod"),
    "change-con": ("con", "mod"),
}
# an "a|b" kind draws one of its words
_WORDS = {kind: kind.split("|") for kinds in _SPECS.values() for kind in kinds if "|" in kind}


def _draw_step(draw, project: Project) -> RefactorStep:
    """A step whose arguments are names in scope in a drawn module."""
    cmd = draw(st.sampled_from(sorted(_SPECS)))
    m = draw(st.sampled_from(project.module_names()))
    mod = project.modules[m]
    scope, cons = module_scope(project, m)
    pools = {
        "mod": [m],
        "fun": [d.name for d in mod.decls] or ["none"],
        "scope": sorted(scope) or ["none"],
        "con": sorted(cons) or ["none"],
        "new": _NEW,
        "target": project.module_names() + ["Extra"],
        "local": sorted({loc.name for d in mod.decls for eq in getattr(d, "equations", ())
                         for loc in eq.locals}) or ["none"],
        "int": ["1", "2"],
        **_WORDS,
    }
    args = tuple(draw(st.sampled_from(pools[kind])) for kind in _SPECS[cmd])
    return RefactorStep(cmd, args, 1)


def _apply(project: Project, step: RefactorStep) -> Project:
    if step.command == "drop-decl":
        f, m = step.args
        mod = project.modules[m]
        return with_module(project, replace(mod, decls=tuple(d for d in mod.decls if d.name != f)))
    if step.command == "touch-decl":
        f, m = step.args
        mod = project.modules[m]
        return with_module(project, replace(mod, decls=tuple(replace(d) if d.name == f else d for d in mod.decls)))
    if step.command == "change-con":
        c, m = step.args
        refs = module_scope(project, m)[1].get(c)
        if not refs:
            raise RefactorError("NotFound", f"no constructor {c} in scope of {m}")
        home = project.modules[refs[0][0].module]
        decls = tuple(
            replace(d, constructors=tuple(
                replace(k, arg_types=k.arg_types + ("Int",)) if k.name == c else k for k in d.constructors))
            if isinstance(d, DataDecl) else d
            for d in home.decls)
        return with_module(project, replace(home, decls=decls))
    return COMMANDS[step.command][1](project, step)


def _outcome(fn, project):
    try:
        return "ok", fn(project)
    except ResolveError as exc:
        return "error", (exc.kind, exc.module, exc.name, str(exc))


def _importers(project: Project) -> dict[str, frozenset[str]]:
    """The importer map derived for project, without empty entries."""
    return {m: importers for m, importers in project_state(project).importers.items() if importers}


def _inverted_imports(project: Project) -> dict[str, frozenset[str]]:
    """module -> the modules that import it, inverted from every module's imports."""
    out: dict[str, set[str]] = {}
    for m, mod in project.modules.items():
        for imp in mod.imports:
            out.setdefault(imp, set()).add(m)
    return {m: frozenset(importers) for m, importers in out.items()}


def _assert_same_as_scratch(inc: Project):
    """The table derived for inc, the outcome of resolving it (the error's
    kind, module, name and message included) and its minimisation are what
    a fresh parse gives."""
    fresh = _fresh(inc)
    got, want = _outcome(build_symbol_table, inc), _outcome(build_symbol_table, fresh)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].scopes == want[1].scopes
        assert got[1].constructors == want[1].constructors
        assert _importers(inc) == _inverted_imports(fresh)
    else:
        assert got == want
    got, want = _outcome(resolve_project, inc), _outcome(resolve_project, fresh)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got == want
        return
    assert alpha_eq_project(minimize_qualifiers(inc), minimize_qualifiers(fresh))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incremental_equals_scratch(data):
    origin = data.draw(st.sampled_from(["pfun", "pdata", "padded"]))
    project = _PADDED if origin == "padded" else load_fixture(origin).project
    resolve_project(project)
    for _ in range(data.draw(st.integers(1, 6))):
        step = _draw_step(data.draw, project)
        try:
            out = _apply(project, step)
        except RefactorError:
            continue
        _assert_same_as_scratch(out)
        if _outcome(resolve_project, out)[0] == "ok":
            project = out  # a broken project is checked, then dropped


@pytest.mark.parametrize("order", [("Z", "A", "B"), ("A", "Z", "B")], ids=["Z-first", "A-first"])
def test_step_invalidating_two_modules_names_the_first_in_module_order(order):
    # Z and A both read g from B; one step drops B's export of g
    texts = {"Z": _A.format(use="g").replace("module A", "module Z"), "A": _A.format(use="g"), "B": _B}
    p = Project({m: parse_module(texts[m]) for m in order} | {"C": parse_module(_C)})
    resolve_project(p)
    p2 = with_module(p, replace(p.modules["B"], exports=()))
    with pytest.raises(ResolveError) as exc:
        resolve_project(p2)
    assert (exc.value.kind, exc.value.module) == ("UnresolvedName", order[0])
    _assert_same_as_scratch(p2)


def test_lineages_with_the_same_module_names_derive_their_own_tables(forward_script):
    # The same steps, alternately, on pfun with three padding modules and on
    # that project with a declaration added to each module: the same module
    # names and count, other scopes.
    plain = _padded_pfun(3)
    touched = plain
    for m in plain.modules:
        touched = _touch(touched, m)
    lineages = [plain, Project(dict(touched.modules))]  # no parent: derived in full
    for project in lineages:
        resolve_project(project)
    for step in forward_script.steps[:20]:
        for i, project in enumerate(lineages):
            lineages[i] = COMMANDS[step.command][1](project, step)
            _assert_same_as_scratch(lineages[i])
    assert build_symbol_table(lineages[0]).scopes != build_symbol_table(lineages[1]).scopes


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_a_run_keeps_no_lineage_alive(monkeypatch, forward_script, checked):
    # each project of a run is derived from the one before; once derived, it
    # drops the link, so an intermediate project dies with its last reference
    results = []

    def changed_decls(before, after):
        results.append(weakref.ref(after))
        return _changed_decls(before, after)

    _changed_decls = script._changed_decls
    monkeypatch.setattr(script, "_changed_decls", changed_decls)
    out, log = run_script(_fresh(load_fixture("pfun").project), forward_script, checked=checked)
    assert log.ok and len(results) == 51
    gc.collect()
    assert [i for i, ref in enumerate(results, start=1) if ref() is not None] == [51]
    assert results[-1]() is out


# --- cost guard: one step pays for the modules it changes ---

def _padded_pfun(count: int) -> Project:
    """pfun plus count unrelated modules, each importing the one before."""
    project = _fresh(load_fixture("pfun").project)
    mods = dict(project.modules)
    for i in range(count):
        imports = f"import Pad{i - 1:02d}\n\n" if i else ""
        body = f"p{i:02d} x = Pad{i - 1:02d}.p{i - 1:02d} x + {i}\n" if i else "p00 x = x\n"
        mods[f"Pad{i:02d}"] = parse_module(
            f"module Pad{i:02d} where\n\n{imports}{body}\nq{i:02d} = p{i:02d} {i}\n"
        )
    return Project(mods)


_PADDED = minimize_qualifiers(_padded_pfun(8))  # an origin of test_incremental_equals_scratch


def _changed(before: Project, after: Project) -> set[str]:
    """Modules whose object or whose imports' objects differ."""
    return {
        m for m, mod in after.modules.items()
        if mod is not before.modules.get(m)
        or any(after.modules.get(i) is not before.modules.get(i) for i in mod.imports)
    }


_SCOPED = {"_check_module", "_scope_of"}


def test_forward_run_scopes_validates_and_walks_pinned_counts(monkeypatch, forward_script):
    # An unchecked forward run of a freshly parsed pfun: a step scopes a
    # module again only when its own scope's inputs changed (its
    # declarations, its imports or an import's interface), validates only
    # new declaration objects where the scope was kept, and walks each
    # declaration object once.
    counts = Counter()

    def counted(fn):
        def wrapper(*args):
            counts[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("_scope_of", "_check_decl", "_collect_reads"):
        monkeypatch.setattr(resolver, name, counted(getattr(resolver, name)))
    _, log = run_script(_fresh(load_fixture("pfun").project), forward_script)
    assert log.ok
    assert counts == {"_scope_of": 70, "_check_decl": 317, "_collect_reads": 91}


@pytest.mark.parametrize("tokens", [
    ("duplicate-into-comment", "eval", "EvalMod"),
    ("rename-top-level", "toString", "ToStringMod", "render"),
    ("rename-top-level", "p20", "Pad20", "s20"),
], ids=["one-module", "two-modules", "padding-chain"])
def test_step_costs_only_the_modules_it_changes(monkeypatch, tokens):
    # A step that changes no interface scopes no module again and validates
    # only the module it changed.
    project = minimize_qualifiers(_padded_pfun(40))
    resolve_project(project)  # the state a step leaves: resolved and minimal
    seen = []

    def counted(fn, module_of):
        def wrapper(*args):
            seen.append((fn.__name__, module_of(*args)))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(resolver, "_check_module", counted(resolver._check_module, lambda t, p, m: m))
    monkeypatch.setattr(resolver, "_scope_of", counted(resolver._scope_of, lambda p, mod: mod.name))
    monkeypatch.setattr(rewrite, "_rewrite_vars", counted(
        rewrite._rewrite_vars, lambda p, f, names, touches: tuple(names)))
    step = RefactorStep(tokens[0], tokens[1:], 1)
    out = COMMANDS[step.command][1](project, step)

    changed = _changed(project, out)
    assert 1 <= len(changed) <= 3
    touched = {m for kind, ms in seen for m in ([ms] if isinstance(ms, str) else ms)}
    if step.command == "duplicate-into-comment":
        assert [s for s in seen if s[0] in _SCOPED] == [("_check_module", "EvalMod")]
    else:
        assert {kind for kind, _ in seen} >= {"_check_module", "_scope_of"}
    assert touched <= changed, f"{sorted(touched - changed)} re-derived without a change"


@pytest.mark.parametrize("tokens, probes", [
    (("duplicate-into-comment", "eval", "EvalMod"), {"changed_modules", "_check_module"}),
    (("rename-top-level", "toString", "ToStringMod", "render"), {"changed_modules", "mentioned_names"} | _SCOPED),
    (("move-def", "eval", "EvalMod", "Client"), {"changed_modules", "mentioned_names", "_imported_from"} | _SCOPED),
    (("generalise-ident", "p05", "Pad05", "p04", "y"), {"changed_modules", "mentioned_names"} | _SCOPED),
], ids=["one-module", "two-modules", "move", "generalise-ident"])
def test_step_visits_as_many_modules_however_large_the_project(monkeypatch, tokens, probes):
    # The same step on 10, 80 and 320 padding modules scopes, validates and
    # rewrites the same modules, compares the same modules by identity when
    # it derives a project's state, probes the same modules' names, walks
    # the same declarations to learn a module's names and visits the same
    # modules of the import graph.
    visits = []

    def counted(fn, modules_of):
        def wrapper(*args):
            visits.extend((fn.__name__, m) for m in modules_of(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(resolver, "_check_module", counted(resolver._check_module, lambda t, p, m: [m]))
    monkeypatch.setattr(resolver, "_scope_of", counted(resolver._scope_of, lambda p, mod: [mod.name]))
    monkeypatch.setattr(rewrite, "_rewrite_vars", counted(rewrite._rewrite_vars, lambda p, f, names, t: names))
    monkeypatch.setattr(resolver, "changed_modules", counted(
        resolver.changed_modules, lambda was, now, names: sorted(names)))
    mentioned = counted(resolver.mentioned_names, lambda mod: [mod.name])
    monkeypatch.setattr(resolver, "mentioned_names", mentioned)
    monkeypatch.setattr(rewrite, "mentioned_names", mentioned)
    naming, asked = [], []

    def names_of(mod):
        naming.append(mod.name)
        asked.append(mod.name)
        try:
            return module_names(mod)
        finally:
            naming.pop()

    def collect(d):
        if naming:
            visits.append(("walk", (naming[-1], d.name)))
        return collect_reads(d)

    def imported_from(*args):
        for m in imported(*args):
            visits.append(("_imported_from", m))
            yield m

    module_names, collect_reads, imported = (
        refactorings.module_names, resolver._collect_reads, refactorings._imported_from)
    monkeypatch.setattr(refactorings, "module_names", names_of)
    monkeypatch.setattr(resolver, "_collect_reads", collect)
    monkeypatch.setattr(refactorings, "_imported_from", imported_from)
    step = RefactorStep(tokens[0], tokens[1:], 1)
    seen, first = [], []
    for count in (10, 80, 320):
        minimal = minimize_qualifiers(_padded_pfun(count))
        # the state a step leaves, and a freshly parsed project as the first
        # step of a run meets it, with every module pending: both resolved
        # and minimal
        for project, visited in ((minimal, seen), (_fresh(minimal), first)):
            resolve_project(project)
            visits.clear()
            asked.clear()
            COMMANDS[step.command][1](project, step)
            visited.append(sorted(visits))
            # a fresh name for a call from another module avoids every module's
            # names, read from remembered reads: no declaration is walked
            assert sorted(asked) == (sorted(project.modules) if step.command == "generalise-ident" else [])
    assert {kind for kind, _ in seen[0]} >= probes
    if step.command == "duplicate-into-comment":  # no interface changes
        assert [s for s in seen[0] if s[0] in _SCOPED] == [("_check_module", "EvalMod")]
    assert seen[0] == seen[1] == seen[2]
    assert first[0] == first[1] == first[2]


@pytest.mark.parametrize("tokens", [
    ("duplicate-into-comment", "eval", "EvalMod"),
    ("rename-top-level", "toString", "ToStringMod", "render"),
    ("rename-top-level", "p20", "Pad20", "s20"),
    ("move-def", "p39", "Pad39", "Pad40"),
], ids=["one-module", "two-modules", "padding-chain", "move"])
def test_step_costs_only_the_declarations_it_changes(monkeypatch, tokens):
    # Validation checks each declaration's remembered reads against the
    # table; only a declaration object the step made is walked, and only a
    # declaration with a droppable qualifier is minimised.
    project = minimize_qualifiers(_padded_pfun(40))
    resolve_project(project)  # the state a step leaves: resolved and minimal
    walked, minimised, inside = [], [], []

    def collect(d):
        walked.append(d)
        return collect_reads(d)

    def minimize(p):
        inside.append(p)
        try:
            return minimize_qualifiers(p)
        finally:
            inside.pop()

    def rewrite_decl(d, *args):
        if inside:
            minimised.append(d)
        return map_decl_roots(d, *args)

    collect_reads, map_decl_roots = resolver._collect_reads, rewrite.map_decl_roots
    monkeypatch.setattr(resolver, "_collect_reads", collect)
    monkeypatch.setattr(refactorings, "minimize_qualifiers", minimize)
    monkeypatch.setattr(rewrite, "map_decl_roots", rewrite_decl)
    step = RefactorStep(tokens[0], tokens[1:], 1)
    out = COMMANDS[step.command][1](project, step)

    assert out is not project and walked  # the step's own declarations
    assert len({id(d) for d in walked}) == len(walked)  # walked lists keep them alive
    old = {id(d) for mod in project.modules.values() for d in mod.decls}
    kept = [d.name for d in walked + minimised if id(d) in old]
    assert kept == [], f"{kept} walked or minimised again without a change"


@pytest.mark.parametrize("prefix, tokens", [
    (7, ("generalise-ident", "eval", "EvalMod", "evalConst", "c")),
    (0, ("move-def", "eval", "EvalMod", "Client")),
], ids=["generalise-ident", "move-def"])
def test_reference_queries_walk_only_the_declarations_that_read_the_target(
        monkeypatch, forward_script, prefix, tokens):
    # generalise-ident and move-def ask which declarations use the recursive
    # eval. On 10, 80 and 320 padding modules, after the forward script's
    # first prefix steps, they walk the same declarations to find or to
    # rewrite its uses: none whose remembered reads do not name eval, and
    # never eval's own definition. A walk is a resolver query's (beside the
    # reads pass) or a rewrite of a declaration other than the step's own.
    f, m = tokens[1], tokens[2]
    walked, reading, own = [], [], []

    def collect(d):
        reading.append(d)
        try:
            return collect_reads(d)
        finally:
            reading.pop()

    def query_roots(d, *args):
        if not reading:
            walked.append(d)
        return decl_expr_roots(d, *args)

    def rewrite_roots(d, *args, **kwargs):
        if d is not own[-1]:
            walked.append(d)
        return map_decl_roots(d, *args, **kwargs)

    collect_reads, map_decl_roots = resolver._collect_reads, refactorings.map_decl_roots
    step = RefactorStep(tokens[0], tokens[1:], 1)
    seen = []
    for count in (10, 80, 320):
        project = minimize_qualifiers(_padded_pfun(count))
        for before in forward_script.steps[:prefix]:
            project = COMMANDS[before.command][1](project, before)
        resolve_project(project)
        own.append(project.modules[m].decl(f))
        walked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(resolver, "_collect_reads", collect)
            patch.setattr(resolver, "decl_expr_roots", query_roots)
            patch.setattr(refactorings, "map_decl_roots", rewrite_roots)
            COMMANDS[step.command][1](project, step)
        assert [d.name for d in walked if d.name == f] == [], "walked the step's own definition"
        unread = [d.name for d in walked if not decl_reads(d).mentions(f)]
        assert unread == [], f"walked {unread}, whose reads do not name {f}"
        seen.append(sorted(d.name for d in walked))
    assert seen[0] == seen[1] == seen[2]
    if step.command == "generalise-ident":
        assert seen[0] == ["r2", "r4"]  # Client's callers, rewritten once each


def test_fold_def_returns_modules_that_fold_nothing_as_the_same_objects():
    project = _project(
        "module A (f, g) where\n\nf x = x + 1\n\ng = 2 + 1\n",
        "module B where\n\nimport A\n\nh = g\n",
    )
    out = COMMANDS["fold-def"][1](project, RefactorStep("fold-def", ("f", "A"), 1))
    assert "g = f 2" in render_module(out.modules["A"])
    assert out.modules["B"] is project.modules["B"]  # an importer that folded nothing


def _uses_by_scanning_every_module(project: Project, target: tuple[str, str], skip=None) -> list[OccRef]:
    """occurrences_of's answer, found by resolving every variable called
    target's name in every module, modules in name order, but in the
    declaration skip of target's module."""
    table = build_symbol_table(project)
    out = []
    for mname in sorted(project.modules):
        for d in project.modules[mname].decls:
            if (mname, d.name) == (target[0], skip):
                continue
            for ei, slot, root, bound in decl_expr_roots(d):
                for sub, e, scope, _ in scoped_vars(root, bound):
                    if e.name == target[1]:
                        ref = resolve_var(table, project, mname, scope, e)
                        if ref is not None and (ref.module, ref.name) == target:
                            out.append(OccRef(mname, d.name, (ei, slot) + sub))
    return out


def _readers_by_scanning_every_module(project: Project, target: tuple[str, str], skip=None) -> list:
    """readers_of's answer from the uses a scan of every module finds: each
    declaration with a use, with the qualifiers of its uses."""
    quals: dict[tuple[str, str], set] = {}
    for occ in _uses_by_scanning_every_module(project, target, skip):
        d = project.modules[occ.module].decl(occ.decl)
        quals.setdefault((occ.module, occ.decl), set()).add(decl_expr_at(d, occ.path).qualifier)
    return [(m, project.modules[m].decl(name), frozenset(q)) for (m, name), q in quals.items()]


def test_restricted_scans_agree_with_scanning_every_module(monkeypatch, forward_script, reverse_script):
    # After every step of the forward and reverse scripts on a padded pfun:
    # readers_of and occurrences_of, which scan a module and its importers,
    # find what a scan of every module finds; the step gives the same result
    # when readers_of and retarget_name scan every module; the importer map
    # is the inverted imports.
    def every_module_readers(table, project, target, skip=None):
        return iter(_readers_by_scanning_every_module(project, target, skip))

    def every_module_retarget(before, after, old, new):
        with monkeypatch.context() as patch:
            patch.setattr(rewrite, "_rewrite_vars", lambda p, fn, names, touches: rewrite_vars(
                p, fn, list(p.modules), lambda m, reads: True))
            return retarget_name(before, after, old, new)

    rewrite_vars, retarget_name = rewrite._rewrite_vars, refactorings.retarget_name
    project = minimize_qualifiers(_padded_pfun(8))
    resolve_project(project)
    steps = forward_script.steps + reverse_script.steps
    for step in steps:
        out = COMMANDS[step.command][1](project, step)
        with monkeypatch.context() as patch:
            patch.setattr(resolver, "readers_of", every_module_readers)
            patch.setattr(refactorings, "readers_of", every_module_readers)
            patch.setattr(refactorings, "retarget_name", every_module_retarget)
            scanned = COMMANDS[step.command][1](project, step)
        assert {m: render_module(mod) for m, mod in out.modules.items()} == \
            {m: render_module(mod) for m, mod in scanned.modules.items()}, step
        table = build_symbol_table(out)
        for m, mod in out.modules.items():
            for d in mod.decls:
                assert occurrences_of(out, m, d.name) == _uses_by_scanning_every_module(out, (m, d.name))
                assert list(readers_of(table, out, (m, d.name), d.name)) == \
                    _readers_by_scanning_every_module(out, (m, d.name), d.name)
        assert _importers(out) == _inverted_imports(out)
        project = out
    assert alpha_eq_project(project, minimize_qualifiers(_padded_pfun(8)))


def test_fresh_name_avoids_a_name_only_an_unrelated_module_uses():
    # f is called from B, so generalise-ident adds f_gen to A; a where-local
    # f_gen in a padding module that neither A nor B imports still takes
    # that name
    project = _padded_pfun(10)
    mods = dict(project.modules)
    mods["A"] = parse_module("module A where\n\nk = 1\n\nf y = y + k\n")
    mods["B"] = parse_module("module B where\n\nimport A\n\nb = f 2\n")
    mods["Pad10"] = parse_module(
        "module Pad10 where\n\nu x = f_gen x\n    where\n        f_gen z = z\n")
    project = minimize_qualifiers(Project(mods))
    out = COMMANDS["generalise-ident"][1](project, RefactorStep("generalise-ident", ("f", "A", "k", "x"), 1))
    assert "f_gen_1 = k" in render_module(out.modules["A"])
    assert "b = f f_gen_1 2" in render_module(out.modules["B"])


def test_second_generalise_ident_walks_only_the_modules_that_changed(monkeypatch):
    # The fresh name for a function called from another module must avoid
    # every name of the project; each module's names are remembered.
    project = _padded_pfun(40)
    mods = dict(project.modules)
    mods["A"] = parse_module("module A where\n\nk = 1\n\nf y = y + k\n\ng y = y * k\n")
    mods["B"] = parse_module("module B where\n\nimport A\n\nb = f 2 + g 3\n")
    project = minimize_qualifiers(Project(mods))
    first = COMMANDS["generalise-ident"][1](project, RefactorStep("generalise-ident", ("f", "A", "k", "x"), 1))
    walked = []

    def counted(mod):
        if "all_names" not in resolver._own(mod):
            walked.append(mod.name)
        return module_names(mod)

    module_names = refactorings.module_names
    monkeypatch.setattr(refactorings, "module_names", counted)
    out = COMMANDS["generalise-ident"][1](first, RefactorStep("generalise-ident", ("g", "A", "k", "x"), 1))
    assert "g_gen" in render_module(out.modules["A"])
    assert walked and set(walked) <= _changed(project, first) | _changed(first, out) == {"A", "B"}


def _entry_index_reads(monkeypatch) -> list[str]:
    """The modules whose index is read from now on while finding entries'
    modules (evaluator._entry_modules), in order."""
    finding, reads = [], []

    def counted_index(mod):
        if finding:
            reads.append(mod.name)
        return decl_index(mod)

    def counted_find(p, names):
        finding.append(True)
        try:
            return entry_modules(p, names)
        finally:
            finding.pop()

    decl_index, entry_modules = evaluator.decl_index, evaluator._entry_modules
    monkeypatch.setattr(evaluator, "decl_index", counted_index)
    monkeypatch.setattr(evaluator, "_entry_modules", counted_find)
    monkeypatch.setattr(script, "_entry_modules", counted_find)
    return reads


def test_one_observation_reads_each_module_index_once_for_its_entries(monkeypatch):
    # finding the modules of N entries is one pass over the modules, not N
    project = _padded_pfun(40)
    entries = ("r1", "r2", "r3", "r4") + tuple(f"q{i:02d}" for i in range(40))
    lookups = _entry_index_reads(monkeypatch)
    assert observe_entries(project, entries) == observe_entries_by_name(project, entries)
    assert set(lookups) == set(project.modules) and max(Counter(lookups).values()) == 1


def test_observation_after_a_step_reads_only_the_changed_modules_index(monkeypatch):
    # the entries' modules are derived from the last observed project state
    project = minimize_qualifiers(_padded_pfun(40))
    entries = ("r1", "r2", "r3", "r4") + tuple(f"q{i:02d}" for i in range(40))
    observe_entries(project, entries)
    lookups = _entry_index_reads(monkeypatch)
    commented = refactorings.duplicate_into_comment(project, "q07", "Pad07")
    assert observe_entries(commented, entries) == observe_entries_by_name(commented, entries)
    assert lookups == ["Pad07"]
    # q07 moves from Pad07 to Pad39: both are read again, and only they
    lookups.clear()
    pad07 = commented.modules["Pad07"]
    moved = rewritten(commented, {
        "Pad07": replace(pad07, decls=pad07.decls[:1]),
        "Pad39": parse_module(render_module(commented.modules["Pad39"]) + "\nq07 = 7\n"),
    })
    assert observe_entries(moved, entries) == observe_entries_by_name(moved, entries)
    assert sorted(lookups) == ["Pad07", "Pad39"]


def test_observing_some_of_the_entries_scans_no_module(monkeypatch):
    # a checked step evaluates only the entries its certificate leaves
    # unproved: the state keeps the modules of every entry, so looking up
    # some of them reads no module's index, now or after the next step
    project = minimize_qualifiers(_padded_pfun(40))
    entries = ("r1", "r2", "r3", "r4") + tuple(f"q{i:02d}" for i in range(40))
    observe_entries(project, entries)
    lookups = _entry_index_reads(monkeypatch)
    assert observe_entries(project, ("r2", "q05")) == observe_entries_by_name(project, ("r2", "q05"))
    assert lookups == []
    commented = refactorings.duplicate_into_comment(project, "q07", "Pad07")
    assert observe_entries(commented, entries) == observe_entries_by_name(commented, entries)
    assert lookups == ["Pad07"]


def test_checked_run_reads_each_module_index_once(monkeypatch, forward_script):
    # the origin's entries' modules are found before step 1, so step 1's
    # state derives them: a module no step changes is read once per run
    project = _padded_pfun(40)
    lookups = _entry_index_reads(monkeypatch)
    changed = Counter()

    def changed_decls(before, after):
        changed.update(m for m, mod in after.modules.items() if mod is not before.modules.get(m))
        return _changed_decls(before, after)

    _changed_decls = script._changed_decls
    monkeypatch.setattr(script, "_changed_decls", changed_decls)
    _, log = run_script(project, forward_script, checked=True)
    assert log.ok
    assert Counter(lookups) == Counter(list(project.modules)) + changed


def _record_compiles(monkeypatch) -> list:
    """Each (module, declaration) compiled from now on, in order."""
    compiled = []

    def counted(module, d):
        compiled.append((module, d))
        return compile_decl(module, d)

    compile_decl = evaluator._compile_decl
    monkeypatch.setattr(evaluator, "_compile_decl", counted)
    return compiled


@pytest.mark.parametrize("tokens", [
    ("duplicate-into-comment", "eval", "EvalMod"),
    ("rename-top-level", "toString", "ToStringMod", "render"),
    ("rename-top-level", "p20", "Pad20", "s20"),
], ids=["one-module", "two-modules", "padding-chain"])
def test_step_recompiles_only_the_declarations_it_changes(monkeypatch, tokens):
    project = minimize_qualifiers(_padded_pfun(40))
    entries = ("r1", "r2", "r3", "r4", "q39")  # q39 reaches every padding module
    observe_entries(project, entries)
    compiled = _record_compiles(monkeypatch)
    step = RefactorStep(tokens[0], tokens[1:], 1)
    out = COMMANDS[step.command][1](project, step)
    assert observe_entries(out, entries) == observe_entries(project, entries)
    assert compiled, "the step changed no evaluated declaration"
    kept = [(m, d.name) for m, d in compiled
            if m in project.modules and any(d is old for old in project.modules[m].decls)]
    assert kept == [], f"{kept} recompiled without a change"


def test_checked_run_compiles_each_declaration_once_per_module(monkeypatch, forward_script):
    compiled = _record_compiles(monkeypatch)
    _, log = run_script(load_fixture("pfun").project, forward_script, checked=True)
    assert log.ok and compiled
    seen = [(m, id(d)) for m, d in compiled]  # compiled keeps every d alive
    assert len(seen) == len(set(seen))
