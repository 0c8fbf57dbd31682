"""Transformation scripts: a flat, line-oriented command sequence.

One command per line, whitespace-separated positional arguments, `#` starts
a comment. Unknown commands, wrong arities and non-integer int arguments are
rejected at parse time; execution is fail-fast and returns the project as
of the last successful step together with a run log.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterable, Optional

from . import refactorings as ops
from .evaluator import EvalError, EvalStats, _entry_modules, default_entries, observe_entries
from .lang import (
    App, DataDecl, Equation, FunDecl, ModuleDef, Project, PVar, Var, app_spine, changed_modules, decl_name,
    equation_scope, make_app, map_scoped, map_vars, record, replace, scoped_vars, var_slot,
)
from .names import alpha_eq_decl, free_vars, substitute_many
from .refactorings import RefactorError
from .render import write_project
from .resolver import (
    DefRef, ResolveError, SymbolTable, decl_index, decl_reads, project_state, readers_of, resolve_project,
    resolve_site,
)


class ScriptSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@record
class RefactorStep:
    command: str
    args: tuple[str, ...]
    source_line: int

    def __str__(self) -> str:
        return " ".join((self.command,) + self.args)


@record
class Script:
    name: str
    steps: tuple[RefactorStep, ...]


# command -> (operation, the kind of each argument). A kind says what an
# argument names: fun a top-level function of the module argument, mod a
# module, new a name the step introduces, con a constructor, local a
# where-local, scope a name in scope in the module, target a module that
# may not exist yet, int a whole number (converted before the operation
# runs), and an "a|b" kind one of its words.
CATALOGUE: dict[str, tuple[Callable[..., Project], tuple[str, ...]]] = {
    "exhibit-function": (ops.exhibit_function, ("fun", "con", "new", "mod")),
    "new-def-fun-app": (ops.new_def_fun_app, ("scope", "int", "new", "mod")),
    "generalise": (ops.generalise, ("fun", "con", "local", "mod", "int", "new", "curried|tupled", "RecType|OtherType")),
    "generalise-ident": (ops.generalise_ident, ("fun", "mod", "scope", "new")),
    "lift-def": (ops.lift_to_top, ("fun", "local", "mod")),
    "rename-top-level": (ops.rename_top_level, ("fun", "mod", "new")),
    "move-def": (ops.move_def, ("fun", "mod", "target")),
    "unfold-instance": (ops.unfold_instance, ("scope", "fun", "mod")),
    "fold-def": (ops.fold_top_level, ("fun", "mod")),
    "generative-fold": (ops.generative_fold, ("scope", "int", "mod")),
    "remove-def": (ops.remove_def, ("fun", "mod")),
    "remove-local-def": (ops.remove_local_def, ("local", "fun", "mod")),
    "clean-imports": (ops.clean_imports, ("mod",)),
    "rm-from-exports": (ops.rm_from_exports, ("fun", "mod")),
    "simplify-case-pattern": (ops.simplify_case_pattern, ("fun", "mod")),
    "case-to-eq": (partial(ops.case_to_eq, matched_arity=1), ("fun", "mod")),
    "case-to-eq2": (partial(ops.case_to_eq, matched_arity=2), ("fun", "mod")),
    "duplicate-into-comment": (ops.duplicate_into_comment, ("fun", "mod")),
    "rm-comment-before": (ops.rm_comment_before, ("fun", "mod")),
    "unify-alpha": (ops.unify_alpha_equivalent, ("fun", "fun", "mod")),
}


def _handler(operation: Callable[..., Project], kinds: tuple[str, ...]):
    """Apply operation to a step's arguments, each int argument converted."""
    return lambda project, step: operation(project, *(int(a) if k == "int" else a for k, a in zip(kinds, step.args)))


# command name -> (arity, handler(project, step) -> project)
COMMANDS: dict[str, tuple[int, Callable[[Project, RefactorStep], Project]]] = {
    command: (len(kinds), _handler(operation, kinds)) for command, (operation, kinds) in CATALOGUE.items()
}


def parse_step(tokens: list[str], line: int) -> RefactorStep:
    """A command and its arguments; an unknown command, a wrong arity or an
    int argument that is not ASCII digits, as the object language writes
    an integer, is a ScriptSyntaxError."""
    command, args = tokens[0], tuple(tokens[1:])
    if command not in CATALOGUE:
        raise ScriptSyntaxError(f"unknown command {command!r}", line)
    kinds = CATALOGUE[command][1]
    if len(args) != len(kinds):
        raise ScriptSyntaxError(f"{command} takes {len(kinds)} argument(s), got {len(args)}", line)
    for i, (kind, arg) in enumerate(zip(kinds, args), start=1):
        if kind == "int" and not (arg.isascii() and arg.isdigit()):
            raise ScriptSyntaxError(f"argument {i} of {command} must be an integer", line)
    return RefactorStep(command, args, line)


def parse_script(text: str, name: str = "script") -> Script:
    steps = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            steps.append(parse_step(line.split(), lineno))
    return Script(name, tuple(steps))


class StepRecord:
    def __init__(self, index: int, command: str, args: tuple[str, ...], outcome: str):
        self.index, self.command, self.args = index, command, args
        self.outcome = outcome  # "applied" | "failed"
        self.error: Optional[str] = None
        self.kind: Optional[str] = None  # the typed kind of error, when it has one
        self.equivalence: Optional[str] = None  # "pass" | "fail" | None
        self.proof: Optional[str] = None  # how the check decided: "renaming" | "unfolding" | "observed" | None
        self.evaluated: Optional[list[str]] = None  # the entries the check evaluated on the result
        self.elapsed = 0.0
        # module -> names of the declarations the step added, removed or replaced
        self.changed: dict[str, list[str]] = {}
        # what the equivalence check cost, None when unchecked: seconds spent
        # on the certificate and observing, and the evaluators' reductions
        # and forcings
        self.check_s: Optional[float] = None
        self.reductions: Optional[int] = None
        self.forcings: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index, "command": self.command, "args": list(self.args),
            "outcome": self.outcome, "kind": self.kind, "error": self.error, "equivalence": self.equivalence,
            "proof": self.proof, "evaluated": self.evaluated, "elapsed_s": self.elapsed, "changed": self.changed,
            "check_s": self.check_s, "reductions": self.reductions, "forcings": self.forcings,
        }


class RunLog:
    def __init__(self, script: str, records: Optional[list[StepRecord]] = None):
        self.script = script
        self.records = [] if records is None else records
        # what observing the origin cost a checked run: seconds and the
        # evaluator's counts, None until it is observed
        self.origin_s: Optional[float] = None
        self.origin: Optional[EvalStats] = None

    @property
    def ok(self) -> bool:
        return all(
            r.outcome == "applied" and r.equivalence in (None, "pass")
            for r in self.records
        )

    def summary(self) -> str:
        lines = []
        for r in self.records:
            status = r.outcome
            if r.equivalence is not None:
                status += f", equivalence {r.equivalence}"
            head = f"step {r.index:3d}  {r.command} {' '.join(r.args)}"
            lines.append(f"{head:<64} [{status}]")
            if r.error:
                lines.append(f"         {r.error}")
        applied = sum(1 for r in self.records if r.outcome == "applied")
        lines.append(f"{applied}/{len(self.records)} step(s) applied")
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON lines: one record per step, then one summary record with what
        observing the origin cost and the process's peak resident set so far."""
        import json  # only a traced run pays for these imports
        import resource

        origin = (None, None) if self.origin is None else (self.origin.steps, self.origin.forcings)
        summary = {
            "summary": {
                "script": self.script,
                "steps": len(self.records),
                "applied": sum(1 for r in self.records if r.outcome == "applied"),
                "ok": self.ok,
                "elapsed_s": sum(r.elapsed for r in self.records),
                "origin_s": self.origin_s,
                "origin_reductions": origin[0],
                "origin_forcings": origin[1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        }
        return "".join(json.dumps(r) + "\n" for r in [*map(StepRecord.to_dict, self.records), summary])


def _replaced(before: Project, after: Project) -> set[str]:
    """The modules whose object differs between a step's input and its
    result: of those after's state has replaced since the input's was
    marked (_changed_decls marks it), or of every module when no ancestor's
    state was known."""
    state, was, now = project_state(after), before.modules, after.modules
    return changed_modules(was, now, (was.keys() | now.keys()) if state.replaced is None else state.replaced)


def _changed_decls(before: Project, after: Project) -> dict[str, list[str]]:
    """module -> sorted names of the declarations added, removed or replaced
    between a step's input and its result, for each module _replaced names.
    Found by object identity: rewrites return what they leave alone as the
    same objects. Marks after's state for the next step."""
    out, was, now = {}, before.modules, after.modules
    for m in sorted(_replaced(before, after)):
        old, new = was.get(m), now.get(m)
        old_decls = old.decls if old is not None else ()
        new_decls = new.decls if new is not None else ()
        kept = {id(d) for d in old_decls} & {id(d) for d in new_decls}
        out[m] = sorted({decl_name(d) for d in old_decls + new_decls if id(d) not in kept})
    project_state(after).replaced = frozenset()
    return out


# --- renaming certificates ---
#
# Translation validation for checked mode (Pnueli, Siegel and Singerman,
# TACAS 1998; Necula, PLDI 2000), one entry at a time (Necula's proof
# obligations; Rothermel and Harrold's safe test selection, TOSEM 1997). A
# step that only renames, moves, drops an unused declaration, or edits
# imports or comments is proved observationally equivalent to its input on
# an entry without evaluating either. The proof is a map φ from the
# result's function definitions to the input's: the identity, except that
# when exactly one function vanished and exactly one appeared, the new one
# maps to the old one. Each function declaration of the result gets a
# verdict: whether it is its φ-preimage up to bound names, each global name
# read through φ denoting what the preimage's name denotes. An evaluation of
# an entry whose every reachable declaration passes takes the same
# reductions in the result as in the input and builds the same values, with
# functions named through φ. So it prints the same when φ fixes the entry
# and the value shows no function that φ, or a renamed where-local, renames.
#
# A declaration that fails that verdict may pass up to unfolding (Necula's
# normalisation before comparing), each side by its own definitions and
# never by folding (Sands, TOPLAS 1996), or, with one parameter more than
# its preimage, as the preimage with a static first parameter (undoing
# lambda-dropping, Danvy and Schultz, TCS 2000); README states rules 1-3
# and 5 and their limits, and judge, _inlined and unfoldable apply them.


class Proof(frozenset):
    """The entries a certificate proves; unfolding: whether a verdict needed rule 1, 2 or 5."""
    unfolding = False


def renaming_certificate(
    before: Project, after: Project, entries: tuple[str, ...], expected: dict[str, str],
    replaced: Iterable[str],
) -> Proof:
    """The entries on which after, the result of one step on before, is
    proved to observe as before does. expected is what before observes, and
    replaced names every module whose object differs between the two. An
    entry left out is not proved, which says nothing of it."""
    try:
        return _proved(before, after, tuple(entries), expected, sorted(replaced))
    except (ResolveError, RecursionError):
        return Proof()


def _functions(mod: ModuleDef | None) -> set[str]:
    return {d.name for d in mod.decls if isinstance(d, FunDecl)} if mod is not None else set()


def _data(mod: ModuleDef | None) -> list:
    return [(d.name, d.constructors) for d in mod.decls if isinstance(d, DataDecl)] if mod is not None else []


def _local_names(d: FunDecl) -> list[str]:
    return [loc.name for eq in d.equations for loc in eq.locals]


def _sites(project: Project, table: SymbolTable):
    """The definition a global site (module, qualifier, name) of project
    denotes, memoised per site: what resolve_site gives, as the evaluator
    reads it, which raises where it denotes none. A qualifier unfoldable
    writes is read in the home module it names."""
    memo: dict[tuple[str, str | None, str], DefRef] = {}

    def resolve(module: str, qualifier: str | None, name: str) -> DefRef:
        site = (module, qualifier, name)
        ref = memo.get(site)
        if ref is None:
            if qualifier is not None and qualifier[0] == "\0":
                _, module, qualifier = qualifier.split("\0")
            ref = memo[site] = resolve_site(table, project, module, qualifier or None, name)
        return ref
    return resolve


def _inlined(eq: Equation) -> Equation:
    """eq with each where-local inlined at its uses and dropped where its rhs
    reads no where-local of eq, every use applies it to at least its
    parameters, and no binder at a use captures a name its rhs reads (rule 1)."""
    if not eq.locals or "_inlined" in eq.__dict__:
        return eq.__dict__.get("_inlined") or eq  # None: nothing inlined
    names, inline = {loc.name for loc in eq.locals}, {}
    roots = [(eq.rhs, frozenset()), *((loc.rhs, frozenset(loc.params)) for loc in eq.locals)]
    for loc in eq.locals:
        free = free_vars(loc.rhs).difference(loc.params)
        if names.isdisjoint(free) and all(
            n >= len(loc.params) and bound.isdisjoint(free)
            for root, base in roots for _, v, bound, n in scoped_vars(root, base)
            if v.name == loc.name and v.qualifier is None and v.name not in bound
        ):
            inline[loc.name] = loc

    def at_use(e, bound):
        head, args = app_spine(e)
        loc = inline.get(head.name) if type(head) is Var and head.qualifier is None else None
        if loc is None or head.name in bound or len(args) != len(loc.params):
            return e
        return substitute_many(loc.rhs, dict(zip(loc.params, args)))
    eq.__dict__["_inlined"] = out = replace(eq, rhs=map_scoped(eq.rhs, frozenset(), at_use), locals=tuple(
        replace(loc, rhs=map_scoped(loc.rhs, frozenset(loc.params), at_use))
        for loc in eq.locals if loc.name not in inline)) if inline else None
    return out or eq


def _globals(eq: Equation) -> frozenset[tuple[str | None, str]]:
    """The global sites (qualifier, name) eq reads; kept on the equation."""
    if "_globals" not in eq.__dict__:
        base = frozenset(equation_scope(eq))  # the names decl_expr_roots binds at each root
        roots = [(eq.rhs, base), *((loc.rhs, base.union(loc.params)) for loc in eq.locals)]
        eq.__dict__["_globals"] = frozenset((v.qualifier, v.name) for root, scope in roots
                                            for _, v, bound, _ in scoped_vars(root, scope)
                                            if v.qualifier is not None or v.name not in bound)
    return eq.__dict__["_globals"]


def _proved(before: Project, after: Project, entries, expected: dict[str, str], replaced: list[str]) -> Proof:
    was, now = before.modules, after.modules
    if any(m not in now for m in replaced):
        return Proof()
    vanished = [DefRef(m, n, "fun") for m in replaced for n in _functions(was.get(m)) - _functions(now[m])]
    appeared = [DefRef(m, n, "fun") for m in replaced for n in _functions(now[m]) - _functions(was.get(m))]
    phi = {appeared[0]: vanished[0]} if len(vanished) == len(appeared) == 1 else {}
    made = set(appeared).difference(phi)  # functions the step made, with no φ partner
    if any(_data(was.get(m)) != _data(now[m]) for m in replaced):
        return Proof()
    # An entry bound in the same one module of both is fixed by φ, which
    # moves only a function new to its module. A closure shows its
    # function's name, which only the identity keeps for certain.
    homes_was, homes_now = _entry_modules(before, entries), _entry_modules(after, entries)
    homes = {entry: homes_now[entry][0] for entry in entries
             if len(homes_now[entry]) == 1 and homes_now[entry] == homes_was[entry]
             and not (phi and "<" in expected[entry])}
    if not homes:
        return Proof()

    state = project_state(after)
    old, new = project_state(before).table, state.table
    resolve_old, resolve_new = _sites(before, old), _sites(after, new)

    # Rule 5: a function new to its declaration with one parameter more than
    # its preimage -> the global of before its first parameter stands for,
    # once its verdict fixed one. No bare read of it matches (same_site).
    static: dict[DefRef, DefRef | None] = {}

    def same_site(module_a: str, a: Var, module_b: str, b: Var) -> bool:
        """Whether global variable b of after's module_b denotes, through φ,
        what a of before's module_a does."""
        ref = resolve_new(module_b, b.qualifier, b.name)
        if static and ref in static:
            return False
        return (phi.get(ref, ref) if phi else ref) == resolve_old(module_a, a.qualifier, a.name)

    def same_constructors(table: SymbolTable, module_a: str, module_b: str, checks) -> bool:
        """Whether each constructor checks name denotes in table's module_b
        what it does in before's module_a."""
        return all(
            table.constructors[module_b].get(c[1]) == old.constructors[module_a].get(c[1])
            for c in checks if c[0] in ("con", "pcon")
        )

    def preimage(module: str, d: FunDecl) -> tuple[str, FunDecl | None]:
        """The module of before that φ maps d of after's module to, and the
        declaration there, if it is a function's."""
        ref = DefRef(module, d.name, "fun")
        src = phi.get(ref, ref)
        prior = decl_index(was[src.module]).get(src.name) if src.module in was else None
        return src.module, prior if isinstance(prior, FunDecl) else None

    # The declarations whose verdict is not given: each new declaration
    # object, and each kept one of a module whose scope changed; the changed
    # modules first, then their importers. Any other declaration of after is
    # an object before held, reading through the same scope.
    suspects: dict[int, tuple[str, FunDecl, bool]] = {}  # id -> (module, declaration, whether new)
    importers = state.importers
    for m in [*replaced, *sorted({i for m in replaced for i in importers.get(m, ())}.difference(replaced))]:
        prior_mod = was.get(m)
        rescoped = prior_mod is not None and new.scopes[m] is not old.scopes.get(m)
        if prior_mod is now[m] and not rescoped:
            continue
        kept = {id(d) for d in prior_mod.decls} if prior_mod is not None else set()
        suspects.update((id(d), (m, d, id(d) not in kept)) for d in now[m].decls
                        if isinstance(d, FunDecl) and (rescoped or id(d) not in kept))
    for m, d, fresh in list(suspects.values()):
        if fresh and (prior := preimage(m, d)[1]) is not None and d.arity == prior.arity + 1:
            static[DefRef(m, d.name, "fun")] = None  # its readers are judged, the kept ones too
            for mr, dr, _ in readers_of(new, after, (m, d.name)):
                suspects.setdefault(id(dr), (mr, dr, False))
    verdicts: dict[int, bool | None] = {}
    unfolded: set[int] = set()  # the verdicts that passed only up to unfolding
    reads: dict[tuple[str, str | None, str], bool] = {}
    sides = {False: (was, old, resolve_old), True: (now, new, resolve_new)}  # whether after -> its own
    bodies: dict[tuple[bool, DefRef], tuple | None] = {}

    def unfoldable(after: bool, ref: DefRef):
        """(declaration, parameters, body) of the function ref names on one
        side, where rule 2 may unfold it; memoised. Each global name of the
        body gets a qualifier no binder captures, which _sites reads in ref's module."""
        if (after, ref) not in bodies:
            modules, _, resolve = sides[after]
            d = decl_index(modules[ref.module]).get(ref.name) if ref.module in modules else None
            bodies[after, ref] = None
            eq = d.equations[0] if isinstance(d, FunDecl) and len(d.equations) == 1 else None
            if eq is not None and not eq.locals and all(type(p) is PVar for p in eq.patterns):
                todo, seen = [ref], set()  # what it reaches, which must not be itself
                while todo:
                    r = todo.pop()
                    dr = decl_index(modules[r.module]).get(r.name) if r.module in modules else None
                    for c in decl_reads(dr).checks if isinstance(dr, FunDecl) else ():
                        if c[0] == "var" and (callee := resolve(r.module, c[1], c[2])) not in seen:
                            seen.add(callee)
                            todo.append(callee)
                if ref not in seen:
                    params, home = tuple(p.name for p in eq.patterns), f"\0{ref.module}\0"
                    bodies[after, ref] = d, params, map_vars(eq.rhs, frozenset(params), lambda v, bound: v if (
                        v.qualifier is None and v.name in bound) else Var(v.name, home + (v.qualifier or "")))
        return bodies[after, ref]

    def reads_as_before(module: str, qualifier: str | None, name: str) -> bool:
        site = (module, qualifier, name)
        if (passed := reads.get(site)) is None:
            v = Var(name, qualifier)
            passed = reads[site] = same_site(module, v, module, v)
        return passed

    def verdict(d: FunDecl, full: bool = True) -> bool | None:
        """Whether d of after is its φ-preimage up to bound names, or up to
        unfolding, or a function made that rule 2 could unfold, or a kept
        declaration whose reads resolve as before through φ; memoised. Not
        full, None where only comparing d with its preimage could pass it."""
        key = id(d)
        if key not in suspects:
            return True
        if key not in verdicts or verdicts[key] is None and full:
            try:
                verdicts[key] = judge(key, d, full)
            except (ResolveError, RecursionError):
                verdicts[key] = False
        return verdicts[key]

    def judge(key: int, d: FunDecl, full: bool) -> bool | None:
        m, _, fresh = suspects[key]
        checks = decl_reads(d).checks
        if not fresh:
            return same_constructors(new, m, m, checks) and all(
                reads_as_before(m, c[1], c[2]) for c in checks if c[0] == "var")
        (src, prior), ref = preimage(m, d), DefRef(m, d.name, "fun")
        if prior is None:  # rule 3
            made_here = ref in made and d.name not in entries and unfoldable(True, ref) is not None
            if made_here:
                unfolded.add(key)
            return made_here
        if key not in verdicts and (not same_constructors(new, src, m, checks) or len(prior.equations) != len(
                d.equations) or prior.arity != d.arity and ref not in static):
            return False
        if not full:
            return None
        fixed: list[DefRef] = []  # rule 5: the global of before that a use of x matched first

        def same(a, b, right):
            if type(b) is Var:
                slot = var_slot(b, right)
                if slot is None:
                    return same_site(src, a, m, b)
                if slot or ref not in static:  # slot 0 is x where rule 5 judges d
                    return False
                v = resolve_old(src, a.qualifier, a.name)
                fixed[:] = fixed or [v]
                return fixed[0] == v
            return (ref in static and type(b) is App and type(b.fn) is Var and type(b.arg) is Var  # f' x
                    and var_slot(b.fn, right) is None and var_slot(b.arg, right) == 0
                    and resolve_new(m, b.fn.qualifier, b.fn.name) == ref
                    and resolve_old(src, a.qualifier, a.name) == phi.get(ref, ref))

        def unfold(a, b, left, right):  # rules 5 (a reader's f' a) and 2, as alpha_eq_expr's hook
            if static and type(a) is Var and type(b) is App and type(b.fn) is Var and var_slot(
                    a, left) is None and var_slot(b.fn, right) is None:
                g = resolve_new(m, b.fn.qualifier, b.fn.name)
                v = static.get(g)  # None until g passed, so never within g's own comparison
                if v is not None and phi.get(g, g) == resolve_old(src, a.qualifier, a.name):
                    return Var(v.name, f"\0{v.module}\0"), b.arg, left, right
            (ha, xs), (hb, ys) = app_spine(a), app_spine(b)
            if type(ha) is Var and type(hb) is Var and len(xs) == len(ys):
                slot = var_slot(ha, left)
                if same(ha, hb, right) if slot is None else slot == var_slot(hb, right):
                    return None
            for after, head, args, scope in ((True, hb, ys, right), (False, ha, xs, left)):
                if type(head) is not Var or var_slot(head, scope) is not None:
                    continue
                r = sides[after][2](m if after else src, head.qualifier, head.name)
                found = None if (after, r) in left else unfoldable(after, r)
                if found is None or len(args) < len(found[1]) or not same_constructors(
                        sides[after][1], src, r.module, decl_reads(found[0]).checks):
                    continue
                _, params, body = found
                e = make_app(substitute_many(body, dict(zip(params, args))), args[len(params):])
                left, right = left + ((after, r),), right + ((after, r),)  # no name: slots stay aligned
                return (a, e, left, right) if after else (e, b, left, right)
            return None
        if ref in static:  # rule 5: before's equations gain a first parameter no name reads
            if any(type(eq.patterns[0]) is not PVar for eq in d.equations):
                return False
            prior = replace(prior, equations=tuple(
                replace(eq, patterns=(PVar("\0"), *eq.patterns)) for eq in prior.equations))
        # An equation both hold as one object is its preimage where its reads resolve as before.
        pairs = [(ea, eb) for ea, eb in zip(prior.equations, d.equations)
                 if ea is not eb or src != m or not all(reads_as_before(m, *site) for site in _globals(eb))]
        a, b = (replace(prior, equations=tuple(ea for ea, _ in pairs)),
                replace(d, equations=tuple(eb for _, eb in pairs)))
        reader = static and ref not in static and any(  # whose reads of f' match only through unfold
            c[0] == "var" and resolve_new(m, c[1], c[2]) in static for c in checks)
        if reader or not alpha_eq_decl(a, b, same):
            fixed.clear()
            if not alpha_eq_decl(replace(a, equations=tuple(map(_inlined, a.equations))),  # rules 1 and 2
                                 replace(b, equations=tuple(map(_inlined, b.equations))), same, unfold):
                return False
            unfolded.add(key)
        if ref in static:
            if not fixed:
                return False
            static[ref] = fixed[0]
            unfolded.add(key)
        return True

    # Rule 5's functions first: a reader of one matches only what its verdict
    # fixed. judge never calls verdict, so no closure here reaches itself and
    # the memos go as this call returns, with no collection.
    for g in list(static):
        verdict(decl_index(now[g.module])[g.name])

    clean: set[DefRef] = set()  # definitions of after whose every reachable one passed

    def reaches_only_passing(entry: str) -> bool:
        """Whether each function declaration entry reaches in after, through
        resolved global sites, passes its verdict; where its value shows a
        closure, each new one passes unfolding nothing and keeps its locals' names."""
        closure = "<" in expected[entry]
        todo, seen, left = [DefRef(homes[entry], entry, "fun")], set(), []  # left: for a full verdict
        while todo:
            ref = todo.pop()
            if ref in seen or ref in clean and not closure:
                continue
            seen.add(ref)
            d = decl_index(now[ref.module]).get(ref.name)
            passed = verdict(d, closure) if isinstance(d, FunDecl) else False
            if passed is False or closure and id(d) in suspects and (
                    id(d) in unfolded or _local_names(d) != _local_names(preimage(ref.module, d)[1])):
                return False
            if passed is None:
                left.append(d)
            todo.extend(resolve_new(ref.module, c[1], c[2]) for c in decl_reads(d).checks if c[0] == "var")
        if not all(map(verdict, left)):
            return False
        clean.update(seen)
        return True
    judged = [d for _, d, _ in suspects.values()]
    every = all("<" not in expected[entry] for entry in homes) and all(
        verdict(d, False) is not False for d in judged) and all(map(verdict, judged))
    out = Proof(homes if every else filter(reaches_only_passing, homes))
    out.unfolding = bool(unfolded)
    return out


_SHOWN = 60  # characters of an observation that a divergence names


def _divergence(entries, expected: dict[str, str], observed: dict[str, str]) -> str:
    """The error of a step whose observation differs: each diverging entry
    with its expected and observed text, each truncated."""
    def shown(text: str) -> str:
        return repr(text[:_SHOWN]) + ("..." if len(text) > _SHOWN else "")
    return "NotEquivalent: " + "; ".join(
        f"{e} expected {shown(expected[e])}, observed {shown(observed[e])}"
        for e in entries if expected[e] != observed[e]
    )


def _failure(exc: Exception) -> tuple[str, str]:
    """The message and the typed kind a step logs for exc."""
    if isinstance(exc, RecursionError):
        return "nesting too deep", "NestingTooDeep"
    return str(exc), exc.kind


def run_script(
    project: Project,
    script: Script,
    checked: bool = False,
    entries: tuple[str, ...] = (),
    snapshot_dir: Optional[str] = None,
) -> tuple[Project, RunLog]:
    """Apply the script's steps in order, fail-fast.

    With checked=True the current project is compared observationally with
    the origin after every step; a disagreement aborts the run, its record
    naming each entry that diverged. The origin is observed once, at the first
    checked step and before its certificate; the log, not that step's
    record, holds the cost (origin_s, origin). Its entries' modules are
    found before the first step, so that step's project derives them. Each
    step offers its result to a renaming certificate against its input
    (renaming_certificate) and evaluates only the entries it does not
    prove; a step whose every entry is proved passes without evaluation.
    With a snapshot directory, every intermediate project is rendered to
    disk.
    """
    resolve_project(project)
    project_state(project).replaced = frozenset()
    origin, expected = project, None
    log = RunLog(script.name)
    if checked:
        entries = entries or tuple(default_entries(project))
        _entry_modules(origin, entries)
    if snapshot_dir is not None:
        write_project(project, f"{snapshot_dir}/step_000")
    for i, step in enumerate(script.steps, start=1):
        t0 = time.perf_counter()
        record = StepRecord(i, step.command, step.args, "applied")
        try:
            before, project = project, COMMANDS[step.command][1](project, step)
        except (RefactorError, RecursionError) as exc:
            record.outcome = "failed"
            record.error, record.kind = _failure(exc)
            record.elapsed = time.perf_counter() - t0
            log.records.append(record)
            return project, log
        if checked:
            t1, stats = time.perf_counter(), EvalStats()
            record.proof, record.evaluated = "observed", []
            try:
                if expected is None:
                    log.origin = EvalStats()
                    try:
                        expected = observe_entries(origin, entries, stats=log.origin)
                    finally:
                        log.origin_s = time.perf_counter() - t1
                        t0, t1 = t0 + log.origin_s, t1 + log.origin_s  # not the step's own cost
                proved = renaming_certificate(before, project, entries, expected, _replaced(before, project))
                record.evaluated = [e for e in entries if e not in proved]
                if record.evaluated:
                    observed = observe_entries(project, record.evaluated, stats=stats)
                    same = all(expected[e] == observed[e] for e in record.evaluated)
                    if not same:
                        record.error = _divergence(record.evaluated, expected, observed)
                        record.kind = "NotEquivalent"
                else:
                    same, record.proof = True, "unfolding" if proved.unfolding else "renaming"
            except (EvalError, ResolveError, RecursionError) as exc:
                same = False
                record.error, record.kind = _failure(exc)
            record.equivalence = "pass" if same else "fail"
            record.check_s = time.perf_counter() - t1
            record.reductions, record.forcings = stats.steps, stats.forcings
        record.elapsed = time.perf_counter() - t0
        record.changed = _changed_decls(before, project)
        log.records.append(record)
        if snapshot_dir is not None:
            write_project(project, f"{snapshot_dir}/step_{i:03d}")
        if record.equivalence == "fail":
            return project, log
    return project, log
