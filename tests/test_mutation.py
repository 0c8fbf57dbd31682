"""The mutation gate: the certificate proves no wrong step.

A seeded sample of the step results of the four shipped scripts is mutated
by seven operators (mutation analysis: DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 1978). Each mutant is offered to the
certificate against the step's input and evaluated on every entry. A mutant
that evaluation kills on an entry must never be proved on that entry, for
every operator and every kind of step.
"""

import random
from collections import Counter

from viewshift.corpus import load_fixture
from viewshift.evaluator import EvalError, default_entries, observe_entries
from viewshift.lang import (
    App, Case, CaseBranch, FunDecl, IntLit, Project, StrLit, Tuple, Var, binder_children, changed_modules,
    decl_expr_roots, pattern_vars, replace, replace_decl_expr_at,
)
from viewshift.names import substitute_many
from viewshift.resolver import ResolveError, resolve_project
from viewshift.script import COMMANDS, renaming_certificate

SCRIPTS = [
    ("pfun", "forward-script", "forward"),
    ("pdata", "reverse-script", "reverse"),
    ("scenario-mult", "scenario-mult", "reverse-mult"),
    ("scenario-derive", "scenario-derive", "forward-derive"),
]
SEED = 2027
STEPS_PER_SCRIPT = 24  # sampled among the steps that change a function declaration
MUTANTS_PER_OPERATOR = 3  # per sampled step, where the step's declarations allow as many


def _nodes(d: FunDecl):
    """(path, node, names bound there) for every expression of d, the path as
    replace_decl_expr_at reads it."""
    for ei, slot, root, bound in decl_expr_roots(d):
        stack = [((ei, slot), root, bound)]
        while stack:
            path, e, scope = stack.pop()
            yield path, e, scope
            for i, (kid, names) in enumerate(binder_children(e)):
                stack.append((path + (i,), kid, scope.union(names)))


def _at(d: FunDecl, edit):
    """d with edit(node, bound names) put in at each node where it gives one."""
    for path, e, scope in _nodes(d):
        new = edit(e, scope)
        if new is not None and new != e:
            yield replace_decl_expr_at(d, path, new)


def _swap_tuple(d, functions, generalised):
    return _at(d, lambda e, _: Tuple((e.items[1], e.items[0], *e.items[2:])) if type(e) is Tuple else None)


def _drop_equation(d, functions, generalised):
    return (replace(d, equations=d.equations[:i] + d.equations[i + 1:]) for i in range(len(d.equations))
            if len(d.equations) > 1)


def _change_literal(d, functions, generalised):
    return _at(d, lambda e, _: IntLit(e.value + 1) if type(e) is IntLit
               else StrLit(e.value + "!") if type(e) is StrLit else None)


def _swap_branches(d, functions, generalised):
    # the bodies of the first two branches, the k-th pattern variable of one
    # read as the k-th of the other, or its last where it binds fewer
    def moved(body, old, new):
        return substitute_many(body, {v: Var(new[min(k, len(new) - 1)]) for k, v in enumerate(old)} if new else {})

    def swap(e, _):
        if type(e) is not Case or len(e.branches) < 2:
            return None
        first, second, *rest = e.branches
        xs, ys = pattern_vars(first.pattern), pattern_vars(second.pattern)
        return Case(e.scrutinee, (CaseBranch(first.pattern, moved(second.body, ys, xs)),
                                  CaseBranch(second.pattern, moved(first.body, xs, ys)), *rest))
    return _at(d, swap)


def _replace_variable(d, functions, generalised):
    # a bound variable by another name bound at the same place
    def other(e, scope):
        if type(e) is Var and e.qualifier is None and e.name in scope:
            names = sorted(scope - {e.name})
            return Var(names[len(e.name) % len(names)]) if names else None
        return None
    return _at(d, other)


def _rename_occurrence(d, functions, generalised):
    # one use of a top-level function by another function of its module
    def other(e, scope):
        if type(e) is Var and e.qualifier is None and e.name not in scope and e.name in functions:
            names = [f for f in functions if f != e.name]
            return Var(names[len(e.name) % len(names)]) if names else None
        return None
    return _at(d, other)


def _swap_static_argument(d, functions, generalised):
    # the global argument of one call f' a of a function the step gave a new
    # first parameter, by another top-level function of f's module
    def other(e, scope):
        if type(e) is App and type(e.fn) is Var and e.fn.qualifier is None and e.fn.name not in scope and (
                e.fn.name in generalised) and type(e.arg) is Var and e.arg.name not in scope:
            names = [g for g in generalised[e.fn.name] if e.arg != Var(g)]
            return App(e.fn, Var(names[len(e.fn.name) % len(names)])) if names else None
        return None
    return _at(d, other)


OPERATORS = {
    "swap-tuple": _swap_tuple,
    "drop-equation": _drop_equation,
    "change-literal": _change_literal,
    "swap-branches": _swap_branches,
    "replace-variable": _replace_variable,
    "rename-occurrence": _rename_occurrence,
    "swap-static-argument": _swap_static_argument,
}


def _generalised(before: Project, after: Project) -> dict[str, list[str]]:
    """Each function of after with more parameters than in before -> the other
    functions of its module."""
    out = {}
    for m, mod in after.modules.items():
        functions = sorted(d.name for d in mod.decls if isinstance(d, FunDecl))
        for d in mod.decls:
            prior = before.modules[m].decl(d.name) if m in before.modules else None
            if isinstance(d, FunDecl) and isinstance(prior, FunDecl) and d.arity > prior.arity:
                out[d.name] = [f for f in functions if f != d.name]
    return out


def _step_results():
    """(kind of step, input, result, the result's changed function
    declarations as (module, declaration), entries, the origin's
    observation) for a seeded sample of the steps of the shipped scripts."""
    rng = random.Random(SEED)
    for origin, scripts, name in SCRIPTS:
        project, run = load_fixture(origin).project, load_fixture(scripts).scripts[name]
        entries = tuple(default_entries(project))
        expected = observe_entries(project, entries)
        results = []
        for step in run.steps:
            before, project = project, COMMANDS[step.command][1](project, step)
            kept = {id(d) for mod in before.modules.values() for d in mod.decls}
            changed = [(m, d) for m, mod in sorted(project.modules.items()) for d in mod.decls
                       if isinstance(d, FunDecl) and id(d) not in kept]
            if changed:
                results.append((step.command, before, project, changed))
        for kind, before, after, changed in rng.sample(results, min(STEPS_PER_SCRIPT, len(results))):
            yield kind, before, after, changed, entries, expected


def _observed(project: Project, entries) -> dict[str, str | None]:
    """Each entry's observation, None where evaluating it fails."""
    out = {}
    for entry in entries:
        try:
            out[entry] = observe_entries(project, (entry,))[entry]
        except (EvalError, ResolveError, RecursionError):
            out[entry] = None
    return out


def mutation_counts():
    """operator -> Counter of mutants, stillborn (not resolvable), killed
    (an entry observes otherwise), proved (every entry proved) and survived;
    the same per kind of step, with unsound: the mutants proved on an entry
    that evaluation kills; and each (operator, kind, mutant declaration,
    entry) proved yet killed."""
    rng, unsound = random.Random(SEED), []
    counts, kinds = {op: Counter() for op in OPERATORS}, {}
    for kind, before, after, changed, entries, expected in _step_results():
        generalised = _generalised(before, after)
        for op, mutate in OPERATORS.items():
            candidates = []
            for m, d in changed:
                functions = sorted(x.name for x in after.modules[m].decls if isinstance(x, FunDecl))
                candidates += [(m, d, new) for new in mutate(d, functions, generalised)]
            for m, d, new in rng.sample(candidates, min(MUTANTS_PER_OPERATOR, len(candidates))):
                mod = after.modules[m]
                mutant = Project({**after.modules, m: replace(mod, decls=tuple(
                    new if x is d else x for x in mod.decls))})
                tallies = (counts[op], kinds.setdefault(kind, Counter()))
                for count in tallies:
                    count["mutants"] += 1
                try:
                    resolve_project(mutant)
                except (ResolveError, RecursionError):
                    for count in tallies:
                        count["stillborn"] += 1
                    continue
                replaced = changed_modules(before.modules, mutant.modules, before.modules.keys() | mutant.modules.keys())
                proof = renaming_certificate(before, mutant, entries, expected, replaced)
                observed = _observed(mutant, entries)
                killed = [e for e in entries if observed[e] != expected[e]]
                for count in tallies:
                    count["killed" if killed else "survived"] += 1
                    count["proved"] += len(proof) == len(entries)
                tallies[1]["unsound"] += any(e in proof for e in killed)
                unsound += [(op, kind, new, e) for e in killed if e in proof]
    return counts, kinds, unsound


def test_no_mutant_the_certificate_proves_is_killed_by_evaluation():
    counts, kinds, unsound = mutation_counts()
    assert unsound == []
    assert all(count["unsound"] == 0 for count in kinds.values()), kinds
    for op, count in counts.items():  # the gate is not vacuous: evaluation kills mutants of every operator
        assert count["killed"] > 0, (op, count)
    # a call of a generalised function given another argument is killed, and never proved
    assert counts["swap-static-argument"]["killed"] == counts["swap-static-argument"]["mutants"] > 0
    assert counts["swap-static-argument"]["proved"] == 0
    assert "generalise-ident" in kinds
