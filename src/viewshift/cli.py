"""Command-line interface.

Exit status: 0 on success, 1 on a refactoring or equivalence failure or on
a program nested too deep for a later stage's stack, 2 on usage or parse
errors, input nested too deep for the parser or not UTF-8 included, and on
a path that cannot be read or written. Results go to stdout, diagnostics to stderr.
The input project directory is never modified.
"""

from __future__ import annotations

import argparse
import sys

# script first: refactorings then compiles on a small heap, which keeps a cold apply's peak RSS down.
from .script import CATALOGUE, COMMANDS, ScriptSyntaxError, parse_script, parse_step, run_script
from .evaluator import EvalError, VOutput, default_entries, evaluate, observe_entries, show_value
from .lang import FunDecl, Var
from .names import alpha_eq_project
from .parse import ParseError, parse_project, read_source
from .refactorings import RefactorError
from .render import write_project
from .resolver import ResolveError, resolve_project

USAGE_EXIT = 2
FAIL_EXIT = 1
# each command of the catalogue with the kinds of its arguments, one a line
SIGNATURES = "\n".join(f"  {c} {' '.join(kinds)}" for c, (_, kinds) in CATALOGUE.items())


def _entries_arg(text: str | None, project) -> tuple[str, ...]:
    """The entries text names, or the project's default ones if it names none."""
    names = (n.strip() for n in (text or "").split(","))
    return tuple(n for n in names if n) or tuple(default_entries(project))


def _cmd_apply(args) -> int:
    script = parse_script(read_source(args.script), name=args.script)
    project = parse_project(args.project)
    entries = _entries_arg(args.entries, project) if args.checked else ()
    if args.checked and not entries:
        print("apply --checked: no entry to compare: name one with --entries", file=sys.stderr)
        return USAGE_EXIT
    out, log = run_script(
        project, script, checked=args.checked, entries=entries, snapshot_dir=args.snapshots
    )
    print(log.summary())
    write_project(out, args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(log.to_json())
    if not log.ok:
        print("script failed; the project as of the last successful step was written", file=sys.stderr)
        return FAIL_EXIT
    return 0


def _cmd_op(args) -> int:
    if len(args.tokens) < 2:
        print("op needs a command, its arguments and a project directory; the commands:", file=sys.stderr)
        print(SIGNATURES, file=sys.stderr)
        return USAGE_EXIT
    step = parse_step(args.tokens[:-1], 1)
    project = parse_project(args.tokens[-1])
    resolve_project(project)
    out = COMMANDS[step.command][1](project, step)
    write_project(out, args.out)
    print(f"applied {step}")
    return 0


def _cmd_alpha_eq(args) -> int:
    a = parse_project(args.dir_a)
    b = parse_project(args.dir_b)
    if alpha_eq_project(a, b):
        print("alpha-equivalent")
        return 0
    print("NOT alpha-equivalent")
    return FAIL_EXIT


def _cmd_obs_eq(args) -> int:
    a = parse_project(args.dir_a)
    b = parse_project(args.dir_b)
    entries = _entries_arg(args.entries, a)
    if not entries:
        print("obs-eq: no entry to compare: name one with --entries", file=sys.stderr)
        return USAGE_EXIT
    obs_a = observe_entries(a, entries)
    obs_b = observe_entries(b, entries)
    same = True
    for entry in entries:
        mark = "==" if obs_a[entry] == obs_b[entry] else "!="
        if obs_a[entry] != obs_b[entry]:
            same = False
        print(f"{entry}: {obs_a[entry]!r} {mark} {obs_b[entry]!r}")
    if same:
        print("observationally equivalent")
        return 0
    print("NOT observationally equivalent")
    return FAIL_EXIT


def _cmd_eval(args) -> int:
    project = parse_project(args.project)
    resolve_project(project)
    entry = args.entry
    if "." in entry:
        module, name = entry.split(".", 1)
    else:
        module, name = None, entry
    if module is None:
        module = "Client" if "Client" in project.modules else None
        if module is None or not isinstance(project.modules[module].decl(name), FunDecl):
            hits = [
                m for m in project.module_names()
                if isinstance(project.modules[m].decl(name), FunDecl)
            ]
            if len(hits) != 1:
                print(f"cannot locate a unique binding {name}", file=sys.stderr)
                return FAIL_EXIT
            module = hits[0]
    # A name the module defines is read as its own, as observe_entries reads
    # an entry, even where an import binds the same name; any other name is
    # looked up in the module's scope.
    mod = project.modules.get(module)
    own = mod is not None and isinstance(mod.decl(name), FunDecl)
    value = evaluate(project, module, Var(name, module if own else None))
    print(value.text if isinstance(value, VOutput) else show_value(value))
    return 0


def _cmd_render(args) -> int:
    project = parse_project(args.project)
    write_project(project, args.out)
    print(f"rendered {len(project.modules)} module(s) to {args.out}")
    return 0


def _cmd_corpus(args) -> int:
    from . import corpus

    if args.action != "extract":
        print("corpus supports: extract <name> --out <dir>", file=sys.stderr)
        return USAGE_EXIT
    try:
        corpus.extract(args.name, args.out)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return USAGE_EXIT
    print(f"extracted {args.name} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewshift",
        description="Transform a program between its function-centered and "
        "constructor-centered architecture views.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("apply", help="run a transformation script on a project")
    p.add_argument("script")
    p.add_argument("project")
    p.add_argument("--out", required=True)
    p.add_argument("--checked", action="store_true",
                   help="verify observational equivalence with the origin after every step")
    p.add_argument("--entries", help="comma-separated entry names (default: Client's r*)")
    p.add_argument("--snapshots", help="directory for per-step project snapshots")
    p.add_argument("--trace", help="file for the run's JSON lines: one record per step, then a summary")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("op", help="apply a single operation: op <command> <args...> <project>",
                       epilog="commands:\n" + SIGNATURES, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("tokens", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("alpha-eq", help="project alpha-equivalence verdict")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.set_defaults(fn=_cmd_alpha_eq)

    p = sub.add_parser("obs-eq", help="observational equivalence verdict")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--entries")
    p.set_defaults(fn=_cmd_obs_eq)

    p = sub.add_parser("eval", help="evaluate a zero-argument entry")
    p.add_argument("project")
    p.add_argument("entry")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("render", help="reformat a project canonically")
    p.add_argument("project")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("corpus", help="materialize a shipped fixture")
    p.add_argument("action", choices=["extract"])
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ScriptSyntaxError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (RefactorError, ResolveError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except RecursionError:
        print("error: nesting too deep", file=sys.stderr)
        return FAIL_EXIT
    except OSError as exc:  # a path that cannot be read or written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
