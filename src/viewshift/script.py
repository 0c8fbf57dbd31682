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
from .lang import DataDecl, FunDecl, ModuleDef, Project, Var, changed_modules, decl_name, record
from .names import alpha_eq_decl
from .refactorings import RefactorError
from .render import write_project
from .resolver import (
    DefRef, ResolveError, SymbolTable, decl_index, decl_reads, project_state, resolve_project, resolve_var,
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
        self.proof: Optional[str] = None  # how the check decided: "renaming" | "observed" | None
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
            "proof": self.proof, "elapsed_s": self.elapsed, "changed": self.changed,
            "check_s": self.check_s, "reductions": self.reductions, "forcings": self.forcings,
        }


class RunLog:
    def __init__(self, script: str, records: Optional[list[StepRecord]] = None):
        self.script = script
        self.records = [] if records is None else records

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
        """JSON lines: one record per step, then one summary record with the
        process's peak resident set so far."""
        import json  # only a traced run pays for these imports
        import resource

        summary = {
            "summary": {
                "script": self.script,
                "steps": len(self.records),
                "applied": sum(1 for r in self.records if r.outcome == "applied"),
                "ok": self.ok,
                "elapsed_s": sum(r.elapsed for r in self.records),
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
# TACAS 1998; Necula, PLDI 2000): a step that only renames, moves, drops an
# unused declaration, or edits imports or comments is proved observationally
# equivalent to its input without evaluating either. The proof is a map φ
# from the result's function definitions to the input's: the identity,
# except that when exactly one function vanished and exactly one appeared,
# the new one maps to the old one. When every declaration of the result is
# its φ-preimage up to bound names, each global name read through φ
# denoting what the preimage's name denotes, an evaluation of the result
# takes the same reductions as one of the input and builds the same values,
# with functions named through φ. So entries that φ fixes, and whose values
# show no function, print the same.


def renaming_certificate(
    before: Project, after: Project, entries: tuple[str, ...], expected: dict[str, str],
    replaced: Iterable[str],
) -> bool:
    """Whether after, the result of one step on before, observes as before
    does on entries. expected is what before observes, and replaced names
    every module whose object differs between the two. False refuses the
    proof, and says nothing of the step."""
    try:
        return _holds(before, after, entries, expected, sorted(replaced))
    except (ResolveError, RecursionError):
        return False


def _functions(mod: ModuleDef | None) -> set[str]:
    return {d.name for d in mod.decls if isinstance(d, FunDecl)} if mod is not None else set()


def _data(mod: ModuleDef | None) -> list:
    return [(d.name, d.constructors) for d in mod.decls if isinstance(d, DataDecl)] if mod is not None else []


def _sites(project: Project, table: SymbolTable):
    """The definition a global site (module, qualifier, name) of project
    denotes, memoised per site; resolve_var raises where it denotes none."""
    memo: dict[tuple[str, str | None, str], DefRef] = {}

    def resolve(module: str, qualifier: str | None, name: str) -> DefRef:
        site = (module, qualifier, name)
        if site not in memo:
            memo[site] = resolve_var(table, project, module, frozenset(), Var(name, qualifier))
        return memo[site]
    return resolve


def _holds(before: Project, after: Project, entries, expected: dict[str, str], replaced: list[str]) -> bool:
    # The cheap tests first. A closure shows its function's name, which φ
    # may change.
    if any("<" in text for text in expected.values()):
        return False
    was, now = before.modules, after.modules
    if any(m not in now for m in replaced):
        return False
    vanished = [DefRef(m, n, "fun") for m in replaced for n in _functions(was.get(m)) - _functions(now[m])]
    appeared = [DefRef(m, n, "fun") for m in replaced for n in _functions(now[m]) - _functions(was.get(m))]
    phi = {appeared[0]: vanished[0]} if len(vanished) == len(appeared) == 1 else {}
    if len(appeared) != len(phi) or any(_data(was.get(m)) != _data(now[m]) for m in replaced):
        return False
    # An entry bound in the same one module of both is fixed by φ, which
    # moves only a function new to its module.
    homes_was, homes_now = _entry_modules(before, entries), _entry_modules(after, entries)
    if any(len(homes_now[entry]) != 1 or homes_now[entry] != homes_was[entry] for entry in entries):
        return False

    state = project_state(after)
    old, new = project_state(before).table, state.table
    resolve_old, resolve_new = _sites(before, old), _sites(after, new)

    def same_site(module_a: str, a: Var, module_b: str, b: Var) -> bool:
        """Whether global variable b of after's module_b denotes, through φ,
        what a of before's module_a does."""
        ref = resolve_new(module_b, b.qualifier, b.name)
        return phi.get(ref, ref) == resolve_old(module_a, a.qualifier, a.name)

    def same_constructors(module_a: str, module_b: str, checks) -> bool:
        return all(
            new.constructors[module_b].get(c[1]) == old.constructors[module_a].get(c[1])
            for c in checks if c[0] in ("con", "pcon")
        )

    # Each new declaration object against its φ-preimage, changed modules
    # first; then the reads of the kept declarations of each module whose
    # scope changed, each distinct read once, the changed modules before
    # their importers.
    kept: dict[str, set[int]] = {}
    for m in replaced:
        kept[m] = {id(d) for d in was[m].decls} if m in was else set()
        for d in now[m].decls:
            if id(d) in kept[m] or not isinstance(d, FunDecl):
                continue
            ref = DefRef(m, d.name, "fun")
            src = phi.get(ref, ref)
            prior = decl_index(was[src.module]).get(src.name) if src.module in was else None
            if not (isinstance(prior, FunDecl) and same_constructors(src.module, m, decl_reads(d).checks)
                    and alpha_eq_decl(prior, d, lambda a, b: same_site(src.module, a, m, b))):
                return False
    importers = state.importers
    for m in [*replaced, *sorted({i for m in replaced for i in importers.get(m, ())} - kept.keys())]:
        if m not in was or new.scopes[m] is old.scopes.get(m):
            continue
        ids = kept.get(m)  # None: the module object is kept, and all of it
        reads = {c for d in now[m].decls if isinstance(d, FunDecl) and (ids is None or id(d) in ids)
                 for c in decl_reads(d).checks}
        sites = (Var(c[2], c[1]) for c in reads if c[0] == "var")
        if not (same_constructors(m, m, reads) and all(same_site(m, v, m, v) for v in sites)):
            return False
    return True


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
    checked step, whose record counts that cost too; its entries' modules are
    found before the first step, so that step's project derives them. Each
    later step first tries a renaming certificate against its input
    (renaming_certificate), and passes without evaluation when
    it holds. With a snapshot directory, every intermediate project is
    rendered to disk.
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
            if expected is not None and renaming_certificate(
                before, project, entries, expected, _replaced(before, project)
            ):
                same, record.proof = True, "renaming"
            else:
                record.proof = "observed"
                try:
                    if expected is None:
                        expected = observe_entries(origin, entries, stats=stats)
                    observed = observe_entries(project, entries, stats=stats)
                    same = expected == observed
                    if not same:
                        record.error, record.kind = _divergence(entries, expected, observed), "NotEquivalent"
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
