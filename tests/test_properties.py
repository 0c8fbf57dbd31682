"""Generative property suites over small ASTs."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from viewshift import refactorings as R
from viewshift.evaluator import evaluate, observe_entries
from viewshift.lang import (
    App, Builtin, Case, CaseBranch, ConApp, Equation, Expr, FunDecl, Infix,
    IntLit, Let, LetBinding, LocalDef, ModuleDef, PCon, PInt, PTuple, PVar,
    PWild, Project, StrLit, Tuple, Var, app_spine, binder_children, decl_expr_at, decl_expr_roots,
    decl_name, map_decl_roots, map_scoped, map_vars, paired_children, replace, replace_decl_expr_at,
    scoped_vars, var_slot, with_binder_children,
)
from viewshift.names import (
    all_names, alpha_eq_decl, alpha_eq_expr, alpha_eq_project, free_vars, substitute,
)
from viewshift.parse import parse_expr, parse_module
from viewshift.reference import evaluate_by_name, observe_entries_by_name
from viewshift.render import render_expr, render_module
from viewshift.resolver import (
    _ARITY, DeclReads, OccRef, ResolveError, _pattern_checks, applications, build_symbol_table,
    decl_reads, importers_of, mentioned_names, occurrences_of, readers_of, resolve_var,
)
from viewshift.rewrite import InstanceMatcher, minimize_qualifiers

CASES = settings(max_examples=100, deadline=None)

NAMES = st.sampled_from(["a", "b", "c", "x", "y", "z", "w", "acc"])
CON_NAMES = st.sampled_from(["K", "L", "Pair"])
STR_ALPHABET = st.sampled_from(list("ab+*\\\"\n\t "))


def _pattern_leaf():
    return st.one_of(
        NAMES.map(PVar),
        st.integers(min_value=0, max_value=9).map(PInt),
        st.just(PWild()),
    )


@st.composite
def _patterns(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_pattern_leaf())
    if kind == 1:
        name = draw(CON_NAMES)
        args = draw(st.lists(_pattern_leaf(), min_size=0, max_size=2))
        return PCon(name, tuple(args), tupled=False)
    if kind == 2:
        name = draw(CON_NAMES)
        args = draw(st.lists(_pattern_leaf(), min_size=2, max_size=3))
        return PCon(name, tuple(args), tupled=True)
    items = draw(st.lists(_pattern_leaf(), min_size=2, max_size=3))
    return PTuple(tuple(items))


def _linear(p):
    from viewshift.lang import pattern_vars
    vs = pattern_vars(p)
    return len(vs) == len(set(vs))


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return Var(draw(NAMES))
        if kind == 1:
            return IntLit(draw(st.integers(0, 99)))
        if kind == 2:
            return StrLit(draw(st.text(STR_ALPHABET, max_size=4)))
        return Var(draw(NAMES), qualifier=draw(st.sampled_from(["M", "N"])))
    kind = draw(st.integers(0, 6))
    sub = lambda: draw(_exprs(depth=depth - 1))
    if kind == 0:
        return Infix(draw(st.sampled_from(["+", "*", "++"])), sub(), sub())
    if kind == 1:
        head = Var(draw(NAMES))
        args = draw(st.lists(_exprs(depth=depth - 1), min_size=1, max_size=2))
        e = head
        for a in args:
            e = App(e, a)
        return e
    if kind == 2:
        return Tuple((sub(), sub()))
    if kind == 3:
        name = draw(CON_NAMES)
        args = draw(st.lists(_exprs(depth=depth - 1), min_size=0, max_size=2))
        return ConApp(name, tuple(args))
    if kind == 4:
        names = draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))
        bindings = tuple(LetBinding(n, sub()) for n in names)
        return Let(bindings, sub())
    if kind == 5:
        pats = draw(st.lists(_patterns().filter(_linear), min_size=1, max_size=3))
        branches = tuple(CaseBranch(p, sub()) for p in pats)
        return Case(sub(), branches)
    return App(Builtin(draw(st.sampled_from(["show", "print"]))), sub())


@st.composite
def _decls(draw):
    name = draw(st.sampled_from(["f", "g", "h"]))
    arity = draw(st.integers(0, 3))
    n_eqs = 1 if arity == 0 else draw(st.integers(1, 2))
    eqs = []
    for _ in range(n_eqs):
        pats = tuple(draw(_patterns().filter(_linear)) for _ in range(arity))
        seen = set()
        ok = True
        from viewshift.lang import pattern_vars
        for p in pats:
            for v in pattern_vars(p):
                if v in seen:
                    ok = False
                seen.add(v)
        if not ok:
            pats = tuple(PVar(f"p{i}") for i in range(arity))
        locals_ = ()
        if draw(st.booleans()):
            lnames = draw(st.lists(
                st.sampled_from(["la", "lb"]), min_size=1, max_size=2, unique=True))
            locals_ = tuple(
                LocalDef(n, tuple(draw(st.lists(st.sampled_from(["q", "r"]), max_size=1, unique=True))), draw(_exprs(depth=2)))
                for n in lnames
            )
        eqs.append(Equation(pats, draw(_exprs(depth=2)), locals_))
    return FunDecl(name, tuple(eqs))


# --- parse/render round trips ---

@CASES
@given(_exprs())
def test_parse_render_roundtrip_expr(e):
    assert parse_expr(render_expr(e)) == e


@CASES
@given(_decls())
def test_parse_render_roundtrip_decl(d):
    mod = ModuleDef("M", None, (), (d,))
    text = render_module(mod)
    assert parse_module(text) == mod


@CASES
@given(_decls())
def test_render_parse_fixed_point(d):
    mod = ModuleDef("M", None, (), (d,))
    text = render_module(mod)
    assert render_module(parse_module(text)) == text


# --- alpha-equivalence is an equivalence relation ---

_RENAMES = [
    {"a": "a1", "b": "b1", "c": "c1", "x": "x1", "y": "y1", "z": "z1", "w": "w1", "acc": "acc1"},
    {"a": "t", "b": "u", "c": "vv", "x": "xx", "y": "yy", "z": "zz", "w": "ww", "acc": "k"},
]


def _rename_decl(d: FunDecl, mapping: dict) -> FunDecl:
    """Consistently rename the bound variables of a simple declaration."""
    new_eqs = []
    for eq in d.equations:
        from viewshift.lang import pattern_vars
        bound = set()
        for p in eq.patterns:
            bound.update(pattern_vars(p))
        rhs = eq.rhs
        new_pats = eq.patterns
        for old in sorted(bound):
            new = mapping.get(old)
            if new is None:
                continue
            from viewshift.lang import _rename_pattern
            new_pats = tuple(_rename_pattern(p, {old: new}) for p in new_pats)
            rhs = substitute(rhs, old, Var(new))
        new_eqs.append(Equation(new_pats, rhs, eq.locals))
    return FunDecl(d.name, tuple(new_eqs))


@st.composite
def _simple_decls(draw):
    arity = draw(st.integers(1, 3))
    params = draw(st.lists(NAMES, min_size=arity, max_size=arity, unique=True))
    return FunDecl("f", (Equation(tuple(PVar(p) for p in params), draw(_exprs(depth=2))),))


@CASES
@given(_simple_decls())
def test_alpha_reflexive(d):
    assert alpha_eq_decl(d, d)


@CASES
@given(_simple_decls())
def test_alpha_symmetric(d):
    d2 = _rename_decl(d, _RENAMES[0])
    assert alpha_eq_decl(d, d2) == alpha_eq_decl(d2, d)
    assert alpha_eq_decl(d, d2)


@CASES
@given(_simple_decls())
def test_alpha_transitive(d):
    d2 = _rename_decl(d, _RENAMES[0])
    d3 = _rename_decl(d2, {v: k for k, v in _RENAMES[1].items()} | _RENAMES[1])
    assert alpha_eq_decl(d, d2) and alpha_eq_decl(d2, d3)
    assert alpha_eq_decl(d, d3)


@CASES
@given(_simple_decls(), _simple_decls())
def test_alpha_symmetry_on_arbitrary_pairs(d1, d2):
    assert alpha_eq_decl(d1, d2) == alpha_eq_decl(d2, d1)


# --- substitution ---

@CASES
@given(_exprs(), NAMES)
def test_substitute_identity(e, x):
    assert alpha_eq_expr(substitute(e, x, Var(x)), e)


@CASES
@given(_exprs(), NAMES, _exprs(depth=2))
def test_substitute_free_vars(e, x, r):
    out = free_vars(substitute(e, x, r))
    allowed = (free_vars(e) - {x}) | free_vars(r)
    assert out <= allowed


@CASES
@given(_exprs(), NAMES, _exprs(depth=2))
def test_substitute_removes_target(e, x, r):
    if x in free_vars(r):
        return  # the replacement legitimately reintroduces x
    assert x not in free_vars(substitute(e, x, r))


# --- call-by-need vs call-by-name agreement ---

_ORACLE_MODULE = """module M where

data T = C Int | A (T, T)

combine (C i) = i
combine (A (l, r)) = combine l + combine r

t1 = A (C 1, C 2)

t2 = A (A (C 1, C 2), C 3)

double x = x + x

shared = combine t2 * double 4

t3 = A (t2, C shared)

pick k (C 0) = k
pick k (C i) = k + i
pick k (A (l, r)) = pick k l * 2 + combine r

sumcase t = case t of
    C 0 -> 1
    A (l, r) -> sumcase l + sumcase r
    y -> combine y
"""


@st.composite
def _int_exprs(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.integers(0, 9).map(IntLit),
            st.sampled_from([parse_expr("combine t1"), parse_expr("combine t2"), Var("shared")]),
        ))
    kind = draw(st.integers(0, 6))
    sub = lambda: draw(_int_exprs(depth=depth - 1))
    if kind == 0:
        return Infix("+", sub(), sub())
    if kind == 1:
        return Infix("*", sub(), sub())
    if kind == 2:
        return App(Var("double"), sub())
    if kind == 3:
        body_var = draw(st.sampled_from(["sh", "sh2"]))
        return Let((LetBinding(body_var, sub()),), Infix("+", Var(body_var), Var(body_var)))
    if kind == 5:
        return App(App(Var("pick"), sub()), draw(_tree_exprs(depth=depth - 1)))
    if kind == 6:
        return App(Var("sumcase"), draw(_tree_exprs(depth=depth - 1)))
    return App(Var("combine"), draw(_tree_exprs(depth=depth - 1)))


@st.composite
def _tree_exprs(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from([Var("t1"), Var("t2"), Var("t3")]))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return ConApp("C", (draw(_int_exprs(depth=0)),))
    if kind == 1:
        return ConApp("A", (Tuple((draw(_tree_exprs(depth=depth - 1)), draw(_tree_exprs(depth=depth - 1)))),))
    return draw(st.sampled_from([Var("t1"), Var("t2"), Var("t3")]))


_ORACLE_PROJECT = Project({"M": parse_module(_ORACLE_MODULE)})


@CASES
@given(_int_exprs())
def test_call_by_need_agrees_with_call_by_name(e):
    need = evaluate(_ORACLE_PROJECT, "M", e)
    name = evaluate_by_name(_ORACLE_PROJECT, "M", e)
    assert need == name


@st.composite
def _entry_projects(draw):
    """The oracle module with entries e0, e1, ... over its shared bindings,
    each perhaps reading an earlier entry too, and the entries in a random
    order."""
    decls = []
    for i in range(draw(st.integers(1, 4))):
        rhs = draw(_int_exprs(depth=2))
        if i and draw(st.booleans()):
            rhs = Infix("+", rhs, Var(f"e{draw(st.integers(0, i - 1))}"))
        decls.append(FunDecl(f"e{i}", (Equation((), rhs),)))
    mod = _ORACLE_PROJECT.modules["M"]
    project = Project({"M": replace(mod, decls=mod.decls + tuple(decls))})
    return project, draw(st.permutations([d.name for d in decls]))


@CASES
@given(_entry_projects())
def test_entries_on_one_heap_observe_as_each_alone(case):
    # the shared top-level cells one entry forces change no later entry
    project, entries = case
    together = observe_entries(project, entries)
    assert list(together) == entries
    assert together == {e: observe_entries(project, [e])[e] for e in entries}
    assert together == observe_entries_by_name(project, entries)


def test_call_by_need_agrees_on_corpus_entries(pfun, pdata):
    entries = ("r1", "r2", "r3", "r4")
    for project in (pfun, pdata):
        assert observe_entries(project, entries) == observe_entries_by_name(project, entries)


# --- inverse laws ---

@CASES
@given(st.sampled_from([("eval", "EvalMod"), ("toString", "ToStringMod"), ("e1", "Client"), ("r2", "Client")]),
       st.sampled_from(["tmp", "aux", "zz"]))
def test_rename_then_inverse_is_identity(target, fresh):
    from viewshift.corpus import load_fixture
    project = load_fixture("pfun").project
    f, m = target
    renamed = R.rename_top_level(project, f, m, fresh)
    back = R.rename_top_level(renamed, fresh, m, f)
    assert alpha_eq_project(back, project)
    assert render_module(back.modules[m]) == render_module(project.modules[m])


@st.composite
def _fold_cases(draw):
    """A definition body over params plus instance arguments.

    Bodies are anchored on a helper symbol h so the generated instance cannot
    accidentally contain further sub-instances of itself (fold rewrites every
    instance, so an unanchored body like `x + x` would over-fold literals).
    """
    n_params = draw(st.integers(1, 2))
    params = ["x", "y"][:n_params]
    op = draw(st.sampled_from(["+", "*"]))
    first = Infix(op, Var(params[0]), IntLit(draw(st.integers(0, 9))))
    body: Expr = App(Var("h"), first)
    if n_params == 2:
        body = App(body, Var(params[1]))
    if draw(st.booleans()):
        body = Infix("+", body, IntLit(draw(st.integers(0, 9))))
    args = [draw(_int_literal_exprs()) for _ in params]
    return params, body, args


@st.composite
def _int_literal_exprs(draw):
    k = draw(st.integers(0, 2))
    if k == 0:
        return IntLit(draw(st.integers(0, 9)))
    if k == 1:
        return Infix("+", IntLit(draw(st.integers(0, 9))), IntLit(draw(st.integers(0, 9))))
    return Infix("*", IntLit(draw(st.integers(1, 5))), IntLit(draw(st.integers(1, 5))))


_H_DECL = FunDecl(
    "h", (Equation((PVar("u"), PVar("v")), Infix("+", Var("u"), Var("v"))),)
)


@CASES
@given(_fold_cases())
def test_fold_then_unfold_restores(case):
    params, body, args = case
    from viewshift.names import substitute_many
    instance = substitute_many(body, dict(zip(params, args)))
    f_decl = FunDecl("f", (Equation(tuple(PVar(p) for p in params), body),))
    g_decl = FunDecl("g", (Equation((), instance),))
    project = Project({"M": ModuleDef("M", None, (), (_H_DECL, f_decl, g_decl))})
    folded = R.fold_top_level(project, "f", "M")
    unfolded = R.unfold_instance(folded, "f", "g", "M")
    assert alpha_eq_decl(unfolded.modules["M"].decl("g"), g_decl)


@CASES
@given(st.sampled_from(["eval", "toString"]), st.sampled_from(["Stash", "Attic"]))
def test_move_then_inverse_is_identity(f, other):
    from viewshift.corpus import load_fixture
    project = load_fixture("pfun").project
    home = "EvalMod" if f == "eval" else "ToStringMod"
    moved = R.move_def(project, f, home, other)
    back = R.move_def(moved, f, other, home)
    for m in ("Client", home, other):
        back = R.clean_imports(back, m)
    assert alpha_eq_project(back, project)


# --- renaming certificates ---

@st.composite
def _renaming_steps(draw):
    """pfun or pdata, its expected observation, and the result of a
    rename-top-level or move-def of one of its functions, or None where the
    operation refuses. A fresh
    name is drawn from every name the project declares, binds or uses, so
    local binders and other globals both come up."""
    from viewshift.corpus import load_fixture
    from viewshift.refactorings import RefactorError
    from viewshift.resolver import module_names
    fixture = load_fixture(draw(st.sampled_from(["pfun", "pdata"])))
    project = fixture.project
    m = draw(st.sampled_from(sorted(project.modules)))
    f = draw(st.sampled_from([d.name for d in project.modules[m].decls if isinstance(d, FunDecl)] or ["none"]))
    try:
        if draw(st.booleans()):
            names = sorted(set().union(*map(module_names, project.modules.values())) | {"tmp"})
            after = R.rename_top_level(project, f, m, draw(st.sampled_from(names)))
        else:
            after = R.move_def(project, f, m, draw(st.sampled_from(sorted(project.modules) + ["Stash"])))
    except RefactorError:
        after = None
    return project, fixture.expected, after


@CASES
@given(_renaming_steps())
def test_a_certified_renaming_observes_as_its_input(case):
    from viewshift.lang import changed_modules
    from viewshift.script import renaming_certificate
    before, expected, after = case
    if after is None:
        return
    entries = tuple(expected)
    replaced = changed_modules(before.modules, after.modules, before.modules.keys() | after.modules.keys())
    proved = [e for e in entries if e in renaming_certificate(before, after, entries, expected, replaced)]
    shown = {e: expected[e] for e in proved}  # both oracles confirm each entry proved
    assert observe_entries(after, proved) == shown
    assert observe_entries_by_name(after, proved) == shown


# --- the binder-scoping primitive ---

@CASES
@given(_exprs())
def test_map_scoped_identity_returns_the_same_object(e):
    assert map_scoped(e, frozenset(), lambda n, s: n) is e


def _reference_reads(d: FunDecl) -> DeclReads:
    """The reads of d by the generic scoped walk: the resolver's pass, as it
    was before it walked by a stack of its own."""
    checks: dict[tuple, None] = {}
    droppable: dict[tuple[str, str], None] = {}
    names = {d.name}
    arity = d.arity
    for eq in d.equations:
        if len(eq.patterns) != arity:
            checks[_ARITY] = None
        for p in eq.patterns:
            _pattern_checks(p, checks)
    for _, _, root, bound in decl_expr_roots(d):
        names |= bound
        for _, e, scope in walk_expr_scoped(root, bound):
            kind = type(e)
            if kind is Var:
                if e.qualifier is not None:
                    checks[("var", e.qualifier, e.name)] = None
                    if e.name not in scope:
                        droppable[e.qualifier, e.name] = None
                elif e.name not in scope:
                    checks[("var", None, e.name)] = None
            elif kind is ConApp:
                checks[("con", e.name, len(e.args))] = None
            elif kind is Case or kind is Let:
                if kind is Case:
                    for b in e.branches:
                        _pattern_checks(b.pattern, checks)
                names.update(*(bound for _, bound in binder_children(e)))
    names.update(c[2] for c in checks if c[0] == "var")
    return DeclReads(tuple(checks), tuple(droppable), frozenset(names))


def _var_fn(v: Var, bound: frozenset[str]) -> Expr:
    """A rewrite of variables alone, in the ways the operations rewrite them:
    qualify some free names, drop qualifiers, apply a name to an argument."""
    if v.qualifier is not None:
        return Var(v.name)
    if v.name in bound:
        return v
    if v.name == "x":
        return App(v, Var("x"))
    return Var(v.name, "Q") if v.name < "m" else v


def _walks_agree(d: FunDecl):
    """The stack walk gives d's reads exactly, checks in first-occurrence
    order included, and map_vars rewrites each root as map_scoped does."""
    fresh = replace(d)  # no reads remembered on it
    assert decl_reads(fresh) == _reference_reads(d)
    assert decl_reads(fresh).checks == _reference_reads(d).checks
    for _, _, root, bound in decl_expr_roots(d):
        assert map_vars(root, bound, _var_fn) == map_scoped(
            root, bound, lambda e, s: _var_fn(e, s) if isinstance(e, Var) else e)
        assert map_vars(root, bound, lambda v, s: v) is root


@CASES
@given(_decls(), _decls())
def test_the_declaration_walks_agree_with_the_scoped_walk(d, other):
    _walks_agree(d)
    # equations of two arities meet the arity check
    _walks_agree(replace(d, equations=d.equations + other.equations))


@lru_cache(maxsize=None)
def _corpus() -> tuple[list[Project], list[Project]]:
    """The four fixtures and the step states, and those with every project
    a step of a shipped script makes."""
    from viewshift.corpus import load_fixture
    from viewshift.script import COMMANDS
    origins = [load_fixture(n).project for n in ("pfun", "pdata", "scenario-mult", "scenario-derive")]
    shipped = origins + [p for _, _, p in load_fixture("step-states").step_states]
    projects = list(shipped)
    for project, fixture in zip(origins, ("forward-script", "reverse-script", "scenario-mult", "scenario-derive")):
        for step in next(iter(load_fixture(fixture).scripts.values())).steps:
            project = COMMANDS[step.command][1](project, step)
            projects.append(project)
    return shipped, projects


def test_the_declaration_walks_agree_on_the_corpus():
    # every declaration of the fixtures and step states, and every one a
    # step of a shipped script makes
    projects = _corpus()[1]
    decls = {id(d): d for p in projects for mod in p.modules.values() for d in mod.decls if isinstance(d, FunDecl)}
    assert len(decls) > 350
    for d in decls.values():
        _walks_agree(d)


def test_walk_expr_scoped_bound_sets_under_shadowing():
    # let a = case b of K (a, c) -> a + c
    # in case a of x -> let x = x in x b
    # scoped_vars gives each variable what the generic walk gave it, and the
    # arguments of the spine it heads
    e = Let(
        (LetBinding("a", Case(Var("b"), (
            CaseBranch(PCon("K", (PVar("a"), PVar("c")), tupled=True),
                       Infix("+", Var("a"), Var("c"))),
        ))),),
        Case(Var("a"), (
            CaseBranch(PVar("x"), Let((LetBinding("x", Var("x")),), App(Var("x"), Var("b")))),
        )),
    )
    expected = [
        ((0, 0), "b", ["a", "top"]),
        ((0, 1, 0), "a", ["a", "c", "top"]),
        ((0, 1, 1), "c", ["a", "c", "top"]),
        ((1, 0), "a", ["a", "top"]),
        ((1, 1, 0), "x", ["a", "top", "x"]),
        ((1, 1, 1, 0), "x", ["a", "top", "x"]),
        ((1, 1, 1, 1), "b", ["a", "top", "x"]),
    ]
    assert [
        (path, node.name, sorted(bound))
        for path, node, bound in walk_expr_scoped(e, frozenset({"top"}))
        if isinstance(node, Var)
    ] == expected
    seen = list(scoped_vars(e, frozenset({"top"})))
    assert [(path, v.name, sorted(bound)) for path, v, bound, _ in seen] == expected
    assert [n for *_, n in seen] == [0, 0, 0, 0, 0, 1, 0]


# --- reference queries against the generic walk they replaced ---

def walk_expr_scoped(e: Expr, bound: frozenset, path: tuple = ()):
    """The generic scoped walk the reference queries ran on before: pre-order
    over every node, yielding (path, node, names bound at the node)."""
    stack = [(path, e, bound)]
    while stack:
        path, e, bound = item = stack.pop()
        yield item
        kids = _scoped_children(e, bound)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), *kids[i]))


def _scoped_children(e: Expr, bound: frozenset) -> list:
    """The children of e, each with the names bound around it, as
    lang.scoped_children gave them before the generic walk was retired."""
    return [(kid, bound.union(names) if names else bound) for kid, names in binder_children(e)]


def _reference_uses_of(table, project, target):
    """resolver.uses_of as it was: every declaration that mentions the name
    walked, every variable called it resolved."""
    home, name = target
    for mname in sorted({home, *importers_of(project, home)}):
        mod = project.modules.get(mname)
        if mod is None or name not in mentioned_names(mod):
            continue
        for d in mod.decls:
            if not isinstance(d, FunDecl) or not decl_reads(d).mentions(name):
                continue
            for ei, slot, root, bound in decl_expr_roots(d):
                for sub, e, scope in walk_expr_scoped(root, bound):
                    if not (isinstance(e, Var) and e.name == name):
                        continue
                    ref = resolve_var(table, project, mname, scope, e)
                    if ref is not None and (ref.module, ref.name) == target:
                        yield OccRef(mname, decl_name(d), (ei, slot) + sub), scope


def _reference_applications(table, project, module, fn, arg_count):
    """resolver.applications as it was, on the generic walk."""
    mod = project.modules[module]
    fn_target = None
    refs = table.lookup(module, fn)
    if len(refs) == 1:
        fn_target = (refs[0].module, refs[0].name)
    for d in mod.decls:
        for ei, slot, root, bound in decl_expr_roots(d):
            nodes = {}
            for sub, e, scope in walk_expr_scoped(root, bound):
                nodes[sub] = e
                if not isinstance(e, App) or (sub and sub[-1] == 0 and isinstance(nodes.get(sub[:-1]), App)):
                    continue
                head, args = app_spine(e)
                if len(args) != arg_count or not isinstance(head, Var) or head.name != fn:
                    continue
                try:
                    ref = resolve_var(table, project, module, scope, head)
                except ResolveError:
                    continue
                if ref is None or (fn_target is not None and (ref.module, ref.name) != fn_target):
                    continue
                yield OccRef(module, decl_name(d), (ei, slot) + sub), ref


def _reference_first_spine(d, name, wanted, local_of=None, skip_slot=None):
    """unfold-instance's search as it was: the first variable the generic walk
    meets, then up the application spine it heads."""
    for ei, slot, root, bound in decl_expr_roots(d, local_of):
        if slot == skip_slot:
            continue
        for sub, e, scope in walk_expr_scoped(root, bound):
            if isinstance(e, Var) and e.name == name and wanted(e, scope):
                path = (ei, slot) + sub
                while len(path) > 2 and path[-1] == 0 and isinstance(decl_expr_at(d, path[:-1]), App):
                    path = path[:-1]
                return path
    return None


def _reference_free_vars(e):
    return {v.name for _, v, bound in walk_expr_scoped(e, frozenset())
            if isinstance(v, Var) and v.name not in bound and v.qualifier is None}


def _reference_all_names(e):
    out = set()
    for _, node, bound in walk_expr_scoped(e, frozenset()):
        out |= bound
        if isinstance(node, Var):
            out.add(node.name)
    return out


def _answer(query, *args):
    """What a query yields, or the error it raises."""
    try:
        return "ok", list(query(*args))
    except ResolveError as exc:
        return "error", exc.kind, str(exc)


def _queries_agree(project: Project, seen: set):
    """Each reference query on project answers as the generic walk did: the
    occurrences of every top-level definition and move-def's referencing
    set for it, and, in each function declaration not in seen,
    free_vars and all_names of every root and, for each name it reads, its
    applications and the first spine of a use."""
    table = build_symbol_table(project)
    for mname, mod in project.modules.items():
        for d in mod.decls:
            target = (mname, d.name)
            want = _answer(_reference_uses_of, table, project, target)
            got = _answer(occurrences_of, project, *target)
            assert got == (want if want[0] == "error" else ("ok", [occ for occ, _ in want[1]]))
            if want[0] == "ok":
                referencing = {occ.module for occ, _ in want[1] if (occ.module, occ.decl) != target}
                assert {m for m, _, _ in readers_of(table, project, target, skip=d.name)} == referencing
            if not isinstance(d, FunDecl) or id(d) in seen:
                continue
            seen.add(id(d))
            for _, _, root, _ in decl_expr_roots(d):
                assert free_vars(root) == _reference_free_vars(root)
                assert all_names(root) == _reference_all_names(root)
            for name in {c[2] for c in decl_reads(d).checks if c[0] == "var"}:
                for wanted in (lambda v, s: True, lambda v, s: v.qualifier is None and v.name not in s):
                    assert R._first_spine(d, name, wanted) == _reference_first_spine(d, name, wanted)
                for k in (1, 2, 3):
                    assert _answer(applications, table, project, mname, name, k) == \
                        _answer(_reference_applications, table, project, mname, name, k)


_QUERY_M = parse_module("module M where\n\na = 1\n\nb = 1\n\nc = 1\n\nx = 1\n")
_QUERY_N = parse_module("module N where\n\nimport M\n\ny = 1\n\nz = 1\n\nw = 1\n\nacc = 1\n")


@CASES
@given(_decls())
def test_the_reference_queries_agree_with_the_generic_walk(d):
    # d in module N, which defines y, z, w and acc and imports M, which
    # defines a, b, c and x: a bare name resolves, and a qualified one
    # where its module defines the name
    n = replace(_QUERY_N, decls=_QUERY_N.decls + (d,))
    _queries_agree(Project({"M": _QUERY_M, "N": n}), set())


def test_the_reference_queries_agree_on_the_corpus():
    seen: set = set()
    for project in _corpus()[1]:
        _queries_agree(project, seen)
    assert len(seen) > 350


def test_unfold_instance_chooses_the_occurrence_the_generic_walk_chooses(monkeypatch):
    # unfold-instance of every variable and where-local each declaration of
    # the fixtures and step states reads
    chosen = []

    def both(d, name, wanted, local_of=None, skip_slot=None):
        got = first_spine(d, name, wanted, local_of, skip_slot)
        assert got == _reference_first_spine(d, name, wanted, local_of, skip_slot)
        chosen.append(got)
        return got

    first_spine = R._first_spine
    monkeypatch.setattr(R, "_first_spine", both)
    for project in _corpus()[0]:
        for m, mod in project.modules.items():
            for d in mod.decls:
                if not isinstance(d, FunDecl):
                    continue
                tokens = {c[2] if c[1] is None else f"{c[1]}.{c[2]}" for c in decl_reads(d).checks if c[0] == "var"}
                tokens.update(loc.name for eq in d.equations for loc in eq.locals)
                for token in sorted(tokens):
                    try:
                        R.unfold_instance(project, token, d.name, m)
                    except R.RefactorError:
                        pass
    assert sum(path is not None for path in chosen) > 200


def test_minimize_qualifiers_keeps_canonical_modules(pfun):
    out = minimize_qualifiers(pfun)
    assert all(out.modules[m] is mod for m, mod in pfun.modules.items())


# --- fold matching on the paired walk, against the matcher's own loop ---

def _reference_match(matcher, template, candidate, site_module, site_bound, sigma):
    """InstanceMatcher.match as it was, with an explicit-stack loop of its own
    beside alpha_eq_expr's."""
    stack = [(template, candidate, (), ())]
    while stack:
        t, c, tscope, cscope = stack.pop()
        if isinstance(t, Var) and t.qualifier is None and t.name in matcher.params and t.name not in tscope:
            if cscope and not free_vars(c).isdisjoint(cscope):
                return False
            if sigma.setdefault(t.name, c) != c:
                return False
        elif isinstance(t, Var):
            if not isinstance(c, Var):
                return False
            slot = var_slot(t, tscope)
            if slot != var_slot(c, cscope):
                return False
            if slot is None:
                target = matcher._global(matcher.template_module, t)
                if target is None or (c.qualifier is None and c.name in site_bound):
                    return False
                if target != matcher._global(site_module, c):
                    return False
        else:
            kids = paired_children(t, c)
            if kids is None:
                return False
            stack += [(x, y, tscope + nx, cscope + ny) for x, y, nx, ny in kids]
    return True


def _matches_agree(matcher, template, candidate, site_module, site_bound, sigma, match=InstanceMatcher.match) -> bool:
    """The verdict of match, which fills sigma, after checking that both are
    the reference's."""
    want: dict = {}
    verdict = match(matcher, template, candidate, site_module, site_bound, sigma)
    assert verdict == _reference_match(matcher, template, candidate, site_module, site_bound, want)
    assert sigma == want
    return verdict


def _plug(e: Expr, choices: dict) -> Expr:
    """e with each free unqualified variable choices names replaced by the
    expressions listed for it, in turn, binders left as they are: a
    replacement's free names may be captured, and two occurrences of one
    name may get different expressions."""
    taken: dict = {}

    def plug(n: Expr, bound: frozenset) -> Expr:
        if not isinstance(n, Var) or n.qualifier is not None or n.name not in choices or n.name in bound:
            return n
        taken[n.name] = taken.get(n.name, -1) + 1
        return choices[n.name][taken[n.name] % len(choices[n.name])]
    return map_scoped(e, frozenset(), plug)


@st.composite
def _renamed_binders(draw, e: Expr) -> Expr:
    """e with the binders of some case branches and lets renamed, and the
    variables they bind with them; a new name may capture a free one."""
    kids = binder_children(e)
    if not kids:
        return e
    renamed: dict = {(): ()}
    out = []
    for kid, names in kids:
        if names not in renamed:
            keep = draw(st.booleans())
            renamed[names] = names if keep else tuple(
                draw(st.lists(NAMES, min_size=len(names), max_size=len(names), unique=True)))
        new = renamed[names]
        kid = draw(_renamed_binders(kid))
        out.append((_plug(kid, {n: [Var(f)] for n, f in zip(names, new) if n != f}), new))
    return with_binder_children(e, out)


@st.composite
def _match_cases(draw):
    """A template over some of x, y and a, in module N of the query
    project, where every name resolves, and a candidate in N or M: the
    template with expressions plugged in for its parameters (captures and
    differing repeats included), then binders renamed, or any expression."""
    template = draw(_exprs())
    params = tuple(draw(st.lists(st.sampled_from(["x", "y", "a"]), max_size=2, unique=True)))
    if draw(st.integers(0, 3)):
        plugs = st.lists(st.one_of(NAMES.map(Var), _exprs(depth=1)), min_size=1, max_size=2)
        candidate = _plug(template, {p: draw(plugs) for p in params})
        candidate = draw(_renamed_binders(candidate))
    else:
        candidate = draw(_exprs())
    return template, params, candidate, "N", draw(st.sampled_from(["M", "N"]))


@CASES
@given(_match_cases(), st.lists(NAMES, max_size=1))
def test_fold_matching_agrees_with_its_own_loop(case, site_bound):
    # every node of the candidate is offered, as the fold's bottom-up
    # rewrite offers them, with the names bound there; and the candidate
    # alone in the template's module, where a plugged one is an instance
    template, params, candidate, template_module, site_module = case
    table = build_symbol_table(Project({"M": _QUERY_M, "N": _QUERY_N}))
    matcher = InstanceMatcher(table, params, template_module)
    _matches_agree(matcher, template, candidate, template_module, frozenset(), {})
    for _, node, bound in walk_expr_scoped(candidate, frozenset(site_bound)):
        _matches_agree(matcher, template, node, site_module, bound, {})


@pytest.mark.parametrize("template, candidate, site_bound, instance", [
    ("x + x", "1 + 1", (), True),
    ("x + x", "1 + 2", (), False),  # one parameter, two expressions
    ("let b = 1 in x", "let b = 1 in b", (), False),  # the plugged b is captured
    ("let b = 1 in x", "let c = 1 in b", (), True),
    ("case w of\n    K a -> z", "case w of\n    K z -> z", (), False),  # a global against a binder
    ("case w of\n    K a -> z + a", "case w of\n    K c -> z + c", (), True),
    ("z + x", "z + 1", ("z",), False),  # z bound at the site is not the global z
    ("y + x", "M.y + 1", (), False),  # N's y against M's, which M does not define
    ("b + x", "M.b + w", (), True),
], ids=["repeat", "repeat-differs", "capture", "no-capture", "global-vs-binder", "binders-renamed",
        "bound-at-site", "qualified-elsewhere", "qualified-same"])
def test_fold_matching_agrees_on_capture_and_shadowing(template, candidate, site_bound, instance):
    # in module N of the query project, with parameter x
    matcher = InstanceMatcher(build_symbol_table(Project({"M": _QUERY_M, "N": _QUERY_N})), ("x",), "N")
    assert _matches_agree(
        matcher, parse_expr(template), parse_expr(candidate), "N", frozenset(site_bound), {}) == instance


def test_fold_matching_agrees_on_the_shipped_scripts(monkeypatch):
    # every (template, node) pair the fold-def and generative-fold steps of
    # the four shipped scripts offer the matcher
    from viewshift.corpus import load_fixture
    from viewshift.script import COMMANDS
    verdicts = []

    def both(self, template, candidate, site_module, site_bound, sigma):
        verdicts.append(_matches_agree(self, template, candidate, site_module, site_bound, sigma))
        return verdicts[-1]

    monkeypatch.setattr(InstanceMatcher, "match", both)
    origins = [load_fixture(n).project for n in ("pfun", "pdata", "scenario-mult", "scenario-derive")]
    for project, fixture in zip(origins, ("forward-script", "reverse-script", "scenario-mult", "scenario-derive")):
        for step in next(iter(load_fixture(fixture).scripts.values())).steps:
            project = COMMANDS[step.command][1](project, step)
    assert len(verdicts) > 100 and sum(verdicts) >= 17  # 428 offers, 17 instances


# --- one rebuild per rewritten declaration ---

def _reference_map_decl_roots(d, fn, local_of=None):
    """map_decl_roots as it was: the declaration rebuilt once per changed root."""
    out = d
    for ei, slot, root, bound in decl_expr_roots(d, local_of):
        new = fn(root, bound)
        if new is not root:
            out = replace_decl_expr_at(out, (ei, slot), new)
    return out


def _rebuilds_agree(d: FunDecl) -> bool:
    """map_decl_roots builds d as the per-root rewrite does, whole and per
    where-local scope, and hands d back under the identity; whether the
    variable rewrite changed d."""
    rewrite = lambda root, bound: map_vars(root, bound, _var_fn)
    for local_of in (None, *range(len(d.equations))):
        assert map_decl_roots(d, rewrite, local_of) == _reference_map_decl_roots(d, rewrite, local_of)
        assert map_decl_roots(d, lambda root, bound: root, local_of) is d
    return map_decl_roots(d, rewrite) is not d


@CASES
@given(_decls())
def test_map_decl_roots_rebuilds_as_the_per_root_rewrite_did(d):
    _rebuilds_agree(d)


def test_map_decl_roots_rebuilds_as_the_per_root_rewrite_did_on_the_corpus():
    # every declaration of the fixtures and step states and every one a step
    # of a shipped script makes, whole and per where-local scope
    projects = _corpus()[1]
    decls = {id(d): d for p in projects for mod in p.modules.values() for d in mod.decls if isinstance(d, FunDecl)}
    assert len(decls) > 350
    assert sum(map(_rebuilds_agree, decls.values())) > 250  # 263 changed by the rewrite
