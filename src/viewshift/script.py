"""Transformation scripts: a flat, line-oriented command sequence.

One command per line, whitespace-separated positional arguments, `#` starts
a comment. Unknown commands, wrong arities and non-integer int arguments are
rejected at parse time; execution is fail-fast and returns the project as
of the last successful step together with a run log.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Optional

from . import refactorings as ops
from .evaluator import EvalError, EvalStats, _entry_modules, default_entries, observe_entries
from .lang import Project, decl_name, record
from .refactorings import RefactorError
from .render import write_project
from .resolver import ResolveError, resolve_project


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
    int argument that is not an integer is a ScriptSyntaxError."""
    command, args = tokens[0], tuple(tokens[1:])
    if command not in CATALOGUE:
        raise ScriptSyntaxError(f"unknown command {command!r}", line)
    kinds = CATALOGUE[command][1]
    if len(args) != len(kinds):
        raise ScriptSyntaxError(f"{command} takes {len(kinds)} argument(s), got {len(args)}", line)
    for i, (kind, arg) in enumerate(zip(kinds, args), start=1):
        if kind == "int":
            try:
                int(arg)
            except ValueError:
                raise ScriptSyntaxError(f"argument {i} of {command} must be an integer", line) from None
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
        self.elapsed = 0.0
        # module -> names of the declarations the step added, removed or replaced
        self.changed: dict[str, list[str]] = {}
        # what the equivalence check cost, None when unchecked: seconds spent
        # observing, and the evaluators' reductions and forcings
        self.check_s: Optional[float] = None
        self.reductions: Optional[int] = None
        self.forcings: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index, "command": self.command, "args": list(self.args),
            "outcome": self.outcome, "kind": self.kind, "error": self.error, "equivalence": self.equivalence,
            "elapsed_s": self.elapsed, "changed": self.changed,
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


def _changed_decls(before: Project, after: Project) -> dict[str, list[str]]:
    """module -> sorted names of the declarations added, removed or replaced
    between two projects, for each module whose object differs. Found by
    object identity: rewrites return what they leave alone as the same
    objects."""
    out, was, now = {}, before.modules, after.modules
    for m in sorted({m for m, mod in now.items() if was.get(m) is not mod} | (was.keys() - now.keys())):
        old, new = was.get(m), now.get(m)
        old_decls = old.decls if old is not None else ()
        new_decls = new.decls if new is not None else ()
        kept = {id(d) for d in old_decls} & {id(d) for d in new_decls}
        out[m] = sorted({decl_name(d) for d in old_decls + new_decls if id(d) not in kept})
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
    checked step, whose record counts that cost too; its entries' modules are
    found before the first step, so that step's project derives them. With a
    snapshot directory, every intermediate project is rendered to disk.
    """
    resolve_project(project)
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
