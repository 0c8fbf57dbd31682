import gc
import json
import sys

import pytest

from viewshift import resolver, rewrite
from viewshift.corpus import load_fixture
from viewshift.evaluator import (
    EvalError, EvalStats, Evaluator, VCon, VInt, VStr, VTuple, default_entries,
    evaluate, observational_eq, observe_entries, show_value,
)
from viewshift.lang import Project, Var
from viewshift.parse import parse_expr, parse_module
from viewshift.refactorings import rename_top_level, unfold_instance
from viewshift.reference import evaluate_by_name, observe_entries_by_name
from viewshift.resolver import ResolveError
from viewshift.script import run_script

ENTRIES = ("r1", "r2", "r3", "r4")
EXPECTED = {"r1": "1+2", "r2": "3", "r3": "1+2+3", "r4": "6"}


def _project(*sources):
    mods = {}
    for src in sources:
        mod = parse_module(src)
        mods[mod.name] = mod
    return Project(mods)


def test_eval_e1(pfun):
    assert evaluate(pfun, "Client", parse_expr("eval e1")) == VInt(3)


def test_eval_arithmetic(pfun):
    assert evaluate(pfun, "Client", parse_expr("1 + 2")) == VInt(3)
    assert evaluate(pfun, "Client", parse_expr("2 * 3")) == VInt(6)


def test_eval_tostring(pfun):
    assert evaluate(pfun, "Client", parse_expr("toString e1")) == VStr("1+2")


def test_eval_constructor_value(pfun):
    v = evaluate(pfun, "Client", parse_expr("e1"))
    assert v == VCon("Add", (VTuple((VCon("Const", (VInt(1),)), VCon("Const", (VInt(2),)))),))
    assert show_value(v) == "Add (Const 1, Const 2)"


def test_observe_entries(pfun, pdata):
    assert observe_entries(pfun, ENTRIES) == EXPECTED
    assert observe_entries(pdata, ENTRIES) == EXPECTED


def test_observe_empty_print():
    p = _project('module Client where\nentry = print ""')
    assert observe_entries(p, ["entry"]) == {"entry": ""}


def test_observational_eq(pfun, pdata):
    assert observational_eq(pfun, pdata, ENTRIES)
    assert observational_eq(pfun, pfun, ENTRIES)


def test_mutant_killed(pfun):
    src = (
        "module EvalMod where\n\nimport Expr\n\n"
        "eval (Const i) = i + 1\n"
        "eval (Add (e1, e2)) = eval e1 + eval e2\n"
    )
    mutant = Project(dict(pfun.modules) | {"EvalMod": parse_module(src)})
    assert not observational_eq(pfun, mutant, ENTRIES)
    assert observe_entries(mutant, ["r2"]) == {"r2": "5"}


def test_determinism(pfun):
    assert observe_entries(pfun, ENTRIES) == observe_entries(pfun, ENTRIES)


def test_pattern_match_failure():
    p = _project(
        "module M where\ndata T = K Int | L Int\nf (K i) = i\nentry = print (show (f (L 1)))"
    )
    with pytest.raises(EvalError) as exc:
        observe_entries(p, ["entry"])
    assert exc.value.kind == "PatternMatchFailure"


def test_step_budget():
    p = _project("module M where\nloop x = loop x\nentry = print (show (loop 1))")
    with pytest.raises(EvalError) as exc:
        observe_entries(p, ["entry"], budget=10_000)
    assert exc.value.kind == "StepBudgetExceeded"


def test_cyclic_value_detected():
    p = _project("module M where\nloop = loop + 1\nentry = print (show loop)")
    with pytest.raises(EvalError) as exc:
        observe_entries(p, ["entry"], budget=10_000)
    assert exc.value.kind == "CyclicEvaluation"


@pytest.mark.parametrize("binding", [
    "entry = print (show (let loop = loop + 1 in loop))",
    "entry = print (show loop)\n    where\n        loop = 1 + loop",
], ids=["let", "where"])
def test_cyclic_local_value_detected(binding):
    p = _project(f"module M where\n{binding}")
    with pytest.raises(EvalError) as exc:
        observe_entries(p, ["entry"], budget=10_000)
    assert exc.value.kind == "CyclicEvaluation"


def test_memoized_cell_keeps_no_reference_to_its_environment():
    # K's field is a thunk over the let's environment; once forced, its cell
    # holds the value alone, so the environment can be freed
    ev = Evaluator(_project("module M where\ndata T = K Int"))
    (field,) = ev.eval_expr(parse_expr("let x = 1 + 2 in K (x * x)"), {}, "M").args
    env = [r for r in gc.get_referents(field) if type(r) is list]
    assert env and ev.force(field) == 9
    assert not any(r is env[0] or type(r) in (list, tuple) for r in gc.get_referents(field))
    (x,) = env[0]
    assert ev.force(x) == 3 and not any(type(r) in (list, tuple) for r in gc.get_referents(x))


def test_sharing_forces_thunk_once(pfun):
    shared = Evaluator(pfun)
    shared.deep(shared.eval_expr(parse_expr("let x = eval e2 in x + x"), {}, "Client"))
    unshared = Evaluator(pfun)
    unshared.deep(unshared.eval_expr(parse_expr("eval e2 + eval e2"), {}, "Client"))
    assert shared.stats.forcings < unshared.stats.forcings


def test_memoization_counter_is_one(pfun):
    # the shared thunk is entered exactly once: using x twice costs the same
    # number of thunk entries as using it once
    twice = Evaluator(pfun)
    assert twice.deep(twice.eval_expr(parse_expr("let x = eval e2 in x + x"), {}, "Client")) == VInt(12)
    once = Evaluator(pfun)
    assert once.deep(once.eval_expr(parse_expr("let x = eval e2 in x"), {}, "Client")) == VInt(6)
    assert twice.stats.forcings == once.stats.forcings


def test_first_matching_equation_wins():
    p = _project(
        "module M where\nf 0 = 10\nf x = 20\nentry = print (show (f 0))"
    )
    assert observe_entries(p, ["entry"]) == {"entry": "10"}


def test_let_rec_top_level():
    # mutually recursive top-level bindings through let-rec cells
    p = _project(
        "module M where\n"
        "data N = Z | S N\n"
        "even (Z) = 1\neven (S n) = odd n\n"
        "odd (Z) = 0\nodd (S n) = even n\n"
        "entry = print (show (even (S (S Z))))"
    )
    assert observe_entries(p, ["entry"]) == {"entry": "1"}


def test_call_by_name_agrees_on_corpus(pfun, pdata):
    assert observe_entries_by_name(pfun, ENTRIES) == EXPECTED
    assert observe_entries_by_name(pdata, ENTRIES) == EXPECTED


def test_call_by_name_recomputes(pfun):
    v = evaluate_by_name(pfun, "Client", parse_expr("let x = eval e2 in x + x"))
    assert v == VInt(12)


def test_show_errors():
    p = _project('module M where\nentry = print (show "oops")')
    with pytest.raises(EvalError):
        observe_entries(p, ["entry"])


def test_print_requires_text():
    p = _project("module M where\nentry = print 5")
    with pytest.raises(EvalError):
        observe_entries(p, ["entry"])


def test_observational_eq_tags_offending_project(pfun):
    broken = _project("module Client where\nr1 = print (show missing)")
    broken = Project(dict(pfun.modules) | {"Client": broken.modules["Client"]})
    with pytest.raises(EvalError) as exc:
        observational_eq(pfun, broken, ("r1",))
    assert "second project" in str(exc.value)


def test_default_entries(pfun):
    assert default_entries(pfun) == ["r1", "r2", "r3", "r4"]


def test_laziness_skips_unused_error():
    # call-by-need must not force an argument the function ignores
    p = _project(
        "module M where\nconst2 x y = x\nboom = boom\nentry = print (show (const2 7 boom))"
    )
    assert observe_entries(p, ["entry"], budget=10_000) == {"entry": "7"}


@pytest.mark.parametrize("observe", [observe_entries, observe_entries_by_name], ids=["by-need", "by-name"])
def test_entry_is_looked_up_in_its_home_module(pfun, observe):
    # EvalMod.r1 reaches Client too, where a bare r1 would be ambiguous
    renamed = rename_top_level(pfun, "eval", "EvalMod", "r1")
    assert observe(renamed, ["r1", "r2"]) == {"r1": "1+2", "r2": "3"}


ONES = (
    "module M where\n\ndata L = Nil | Cons (Int, L)\n\n"
    "ones = Cons (1, ones)\n\nr1 = ones\n"
)


@pytest.mark.parametrize("observe", [observe_entries, observe_entries_by_name], ids=["by-need", "by-name"])
def test_infinite_data_meets_the_step_budget(observe):
    # deep forcing walks its own stack, so the budget ends it, not the host's
    with pytest.raises(EvalError) as exc:
        observe(_project(ONES), ["r1"], budget=10_000)
    assert exc.value.kind == "StepBudgetExceeded"


LAZY = (
    "module M where\n\n"
    "f 0 = 1\nf n = missing n\n\n"
    "g n = case n of\n    0 -> 2\n    m -> M.nosuch m\n\n"
    "r1 = print (show (f 0 + g 0))\n\nr2 = f 1\n\nr3 = g 1\n"
)


def test_unresolved_name_fails_only_where_evaluated():
    # f's second equation and g's second branch name nothing in scope
    p = _project(LAZY)
    assert observe_entries(p, ["r1"]) == {"r1": "3"}
    for entry, name in (("r2", "missing"), ("r3", "nosuch")):
        with pytest.raises(ResolveError) as exc:
            observe_entries(p, [entry])
        assert (exc.value.kind, exc.value.module, exc.value.name) == ("UnresolvedName", "M", name)


def test_site_without_one_candidate_fails_as_the_resolver_says():
    # a name with one candidate is read from the table; the others raise
    # what resolve_var raises for them
    p = _project(
        "module A where\n\nimport B\nimport C\n\nr1 = g\n\nr2 = h\n\nr3 = C.g\n\nr4 = D.g\n\nr5 = k\n",
        "module B where\n\ng = 1\n\nk = 3\n", "module C where\n\ng = 2\n",
    )
    assert observe_entries(p, ["r3", "r5"]) == {"r3": "2", "r5": "3"}
    table, kinds = resolver.build_symbol_table(p), []
    for entry, use in (("r1", Var("g")), ("r2", Var("h")), ("r4", Var("g", "D"))):
        with pytest.raises(ResolveError) as expected:
            resolver.resolve_var(table, p, "A", frozenset(), use)
        with pytest.raises(ResolveError) as exc:
            observe_entries(p, [entry])
        assert (exc.value.kind, str(exc.value)) == (expected.value.kind, str(expected.value))
        kinds.append(exc.value.kind)
    assert kinds == ["AmbiguousName", "UnresolvedName", "UnresolvedName"]


def _checked_run_counts(monkeypatch, project, script) -> tuple[int, int, int]:
    """(evaluators, reductions, forcings) of a checked run, which must pass."""
    stats = []
    init = Evaluator.__init__

    def counted(ev, *args, **kwargs):
        init(ev, *args, **kwargs)
        stats.append(ev.stats)

    monkeypatch.setattr(Evaluator, "__init__", counted)
    _, log = run_script(project, script, checked=True)
    assert log.ok
    return len(stats), sum(s.steps for s in stats), sum(s.forcings for s in stats)


def test_checked_forward_run_counts(pfun, forward_script, monkeypatch):
    # The compiled machine ticks where a tree walk over the same expressions
    # would. One evaluator per observation: the origin once, then the one
    # step on which the certificate leaves an entry unproved (unify-alpha),
    # every such entry forced on that evaluator's heap.
    assert _checked_run_counts(monkeypatch, pfun, forward_script) == (2, 284, 104)


@pytest.mark.parametrize("origin, scripts, script, counts", [
    ("pdata", "reverse-script", "reverse", (5, 671, 259)),
    ("scenario-mult", "scenario-mult", "reverse-mult", (5, 934, 360)),
    ("scenario-derive", "scenario-derive", "forward-derive", (2, 346, 118)),
], ids=["pdata-reverse", "scenario-mult", "scenario-derive"])
def test_checked_run_counts(monkeypatch, origin, scripts, script, counts):
    # the same pins for the other shipped conversions
    project, run = load_fixture(origin).project, load_fixture(scripts).scripts[script]
    assert _checked_run_counts(monkeypatch, project, run) == counts


def test_checked_forward_trace_sums_to_the_run_counts(pfun, forward_script):
    # each step's record holds its own check cost, and the summary record
    # the one observation of the origin; together they are the run's counts
    # (284, 104). Step 1 evaluates nothing: the certificate proves its
    # exhibit-function by unfolding
    _, log = run_script(pfun, forward_script, checked=True)
    *records, summary = map(json.loads, log.to_json().splitlines())
    summary = summary["summary"]
    assert (sum(r["reductions"] for r in records), sum(r["forcings"] for r in records)) == (141, 57)
    assert (summary["origin_reductions"], summary["origin_forcings"]) == (143, 47)
    origin = EvalStats()
    observe_entries(pfun, ENTRIES, stats=origin)
    assert (summary["origin_reductions"], summary["origin_forcings"]) == (origin.steps, origin.forcings)
    assert (records[0]["proof"], records[0]["evaluated"], records[0]["reductions"]) == ("unfolding", [], 0)


def _count_calls(monkeypatch, *functions) -> dict[str, int]:
    """Count calls of each function at every module attribute of viewshift
    that binds it, as the benchmark's tracer wraps them."""
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        wrapper = counted(fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("viewshift") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


@pytest.mark.parametrize("checked, builds", [(False, 206), (True, 208)], ids=["unchecked", "checked"])
def test_forward_run_resolver_counts(pfun, forward_script, monkeypatch, checked, builds):
    # the call counts the benchmark reads from its traced paper forward run
    counts = _count_calls(
        monkeypatch, resolver.build_symbol_table, resolver.resolve_project, rewrite.minimize_qualifiers
    )
    _, log = run_script(pfun, forward_script, checked=checked)
    assert log.ok
    assert counts == {"build_symbol_table": builds, "resolve_project": 103, "minimize_qualifiers": 51}


def test_unfold_from_another_module_builds_no_second_table(monkeypatch):
    # the step's own table, then _finish's; qualifying g's body for A reads
    # the step's table (it used to build a fifth of the same project)
    project = _project(
        "module A where\n\nimport B\n\nf x = g x + 1\n",
        "module B where\n\nh = 2\n\ng y = y + h\n",
    )
    counts = _count_calls(monkeypatch, resolver.build_symbol_table)
    out = unfold_instance(project, "g", "f", "A")
    assert out.modules["A"].decl("f").equations[0].rhs == parse_expr("x + h + 1")
    assert counts == {"build_symbol_table": 4}


def test_entry_lookup_errors():
    # r is bound in Z and in A: the modules are listed in name order
    project = _project(
        "module Z where\n\nr = 1\n\nz = 2\n", "module A where\n\nr = 3\n\nf x = x\n",
    )
    for entries, message in (
        (["z", "missing"], "no zero-argument binding missing in the project"),
        (["f"], "no zero-argument binding f in the project"),
        (["z", "r"], "entry r is defined in several modules: ['A', 'Z']"),
    ):
        with pytest.raises(EvalError) as exc:
            observe_entries(project, entries)
        assert (exc.value.kind, str(exc.value)) == ("UnresolvedName", message)


def _entry_stats(project, entry, budget=10**6):
    ev = Evaluator(project, budget)
    value = ev.deep(ev.eval_expr(Var(entry), {}, "Client"))
    return value, ev.stats


@pytest.mark.parametrize("fixture", ["pfun", "pdata"])
def test_step_budget_boundary_is_exact(fixture):
    # a budget of s steps evaluates an entry that takes s, and the tick that
    # goes over any smaller budget raises, also inside a fused call
    project = load_fixture(fixture).project
    for entry in ENTRIES:
        steps = _entry_stats(project, entry)[1].steps
        assert observe_entries(project, [entry], budget=steps) == {entry: EXPECTED[entry]}
        _assert_every_smaller_budget_runs_out(project, entry, steps)


def _assert_every_smaller_budget_runs_out(project, entry, steps):
    for budget in range(steps):
        ev = Evaluator(project, budget)
        with pytest.raises(EvalError) as exc:
            ev.deep(ev.eval_expr(Var(entry), {}, "Client"))
        assert exc.value.kind == "StepBudgetExceeded"
        assert ev.stats.steps == budget + 1


@pytest.mark.parametrize("fixture", ["pfun", "pdata"])
def test_cold_and_warm_observations_count_alike(fixture):
    project = load_fixture(fixture).project  # parsed afresh: nothing compiled yet
    cold = [_entry_stats(project, entry) for entry in ENTRIES]
    warm = [_entry_stats(project, entry) for entry in ENTRIES]
    assert cold == warm


SHARED = (
    "module Client where\n\ndouble x = x + x\n\n"
    "big = double (double (double (double 1)))\n\n"
    "spin n = spin (n + 1)\n\n"
    "r1 = big\n\nr2 = big + 1\n\nr3 = spin 0\n"
)


def test_step_budget_counts_each_entrys_own_reductions():
    # r2 alone evaluates big; after r1 on the same heap it reads big's cell
    project = _project(SHARED)
    budget = _entry_stats(project, "r1")[1].steps
    assert _entry_stats(project, "r2")[1].steps > budget
    assert observe_entries(project, ["r1", "r2"], budget=budget) == {"r1": "16", "r2": "17"}
    for entries, over in ((["r2"], budget), (["r1"], budget - 1), (["r1", "r3"], budget)):
        with pytest.raises(EvalError) as exc:
            observe_entries(project, entries, budget=over)
        assert exc.value.kind == "StepBudgetExceeded"
        assert str(exc.value) == f"reduction budget of {over} steps exceeded"


# Equations and case arms are selected by the constructor in one column; the
# values and the exact counts below are those of the linear scan.
DISPATCH = """module Client where

data T = A Int | B Int | C Int

wrap i = B i

f (A x) = x + 1
f y = 2
f (B z) = z

h (C 1) = 10
h (C i) = i + 20

g x (A p) = x + p
g x (B q) = x * q

m (A x) = 1
m 0 = 2
m y = f y

n x (A p) = p
n (B q) (C y) = q + 2
n x y = 3

k t = case t of
    A x -> x + 1
    y -> f y
    B z -> z

km t = case t of
    A x -> 1
    0 -> 2
    y -> 4

kc t = case t of
    C 1 -> 10
    C i -> i + 20

kg x t = case t of
    A p -> x + p
    B q -> x * q
"""

DISPATCHED = [
    # a catch-all equation between constructor equations
    ("f (A 7)", "8", 10, 3),
    ("f (wrap 7)", "2", 10, 2),
    ("f (C 7)", "2", 7, 2),
    ("f 5", "2", 7, 2),
    # overlapping equations
    ("h (C 1)", "10", 8, 3),
    ("h (C 2)", "22", 10, 3),
    # the constructor column is not the first
    ("g 2 (A 3)", "5", 11, 4),
    ("g 2 (wrap 3)", "6", 15, 5),
    # a literal pattern between constructor and variable equations
    ("m (A 1)", "1", 7, 2),
    ("m 0", "2", 7, 2),
    ("m (wrap 1)", "2", 14, 3),
    # a refutable pattern before the first equation's constructor column
    ("n (wrap 1) (C 2)", "3", 15, 5),
    ("n (wrap 1) (B 2)", "3", 11, 3),
    ("n 1 (A 2)", "2", 8, 3),
    # case with the same shapes
    ("k (A 0)", "1", 12, 4),
    ("k (wrap 0)", "2", 16, 4),
    ("k (C 0)", "2", 13, 4),
    ("km 0", "2", 9, 3),
    ("km (wrap 1)", "4", 12, 3),
    ("kc (C 1)", "10", 10, 4),
    ("kc (C 2)", "22", 12, 4),
    ("kg 2 (A 3)", "5", 13, 5),
    ("kg 2 (wrap 3)", "6", 17, 6),
]

UNDISPATCHED = [
    # the dispatched argument is not a constructor, or no candidate matches
    ("g 1 2", "no equation of g matches its arguments", 5, 2),
    ("g 1 (C 2)", "no equation of g matches its arguments", 5, 2),
    ("h (A 1)", "no equation of h matches its arguments", 5, 2),
    ('h "s"', "no equation of h matches its arguments", 5, 2),
    ("kg 1 (C 2)", "no case branch matches in module Client", 7, 3),
    ("kg 1 (1, 2)", "no case branch matches in module Client", 7, 3),
    ("kc 3", "no case branch matches in module Client", 7, 3),
]


def _dispatch_project(*uses):
    entries = "".join(f"\nr{i} = {use}\n" for i, use in enumerate(uses))
    return _project(DISPATCH + entries)


@pytest.mark.parametrize("use, shown, steps, forcings", DISPATCHED, ids=[d[0] for d in DISPATCHED])
def test_dispatch_keeps_values_and_counts(use, shown, steps, forcings):
    project = _dispatch_project(use)
    value, stats = _entry_stats(project, "r0")
    assert (show_value(value), stats.steps, stats.forcings) == (shown, steps, forcings)
    assert observe_entries_by_name(project, ["r0"]) == {"r0": shown}
    _assert_every_smaller_budget_runs_out(project, "r0", steps)


@pytest.mark.parametrize("use, message, steps, forcings", UNDISPATCHED, ids=[d[0] for d in UNDISPATCHED])
def test_dispatch_failure_keeps_kind_message_and_counts(use, message, steps, forcings):
    ev = Evaluator(_dispatch_project(use))
    with pytest.raises(EvalError) as exc:
        ev.deep(ev.eval_expr(Var("r0"), {}, "Client"))
    assert (exc.value.kind, str(exc.value)) == ("PatternMatchFailure", message)
    assert (ev.stats.steps, ev.stats.forcings) == (steps, forcings)
