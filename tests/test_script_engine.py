import json
import os
import re

import pytest

from viewshift import refactorings, script
from viewshift.evaluator import EvalStats, observe_entries
from viewshift.lang import App, Equation, FunDecl, IntLit, Project, Var, decl_name, replace
from viewshift.names import alpha_eq_project
from viewshift.parse import parse_module, parse_project
from viewshift.render import render_decl, render_module
from viewshift.script import (
    CATALOGUE, COMMANDS, RefactorStep, Script, ScriptSyntaxError, parse_script, run_script,
)

ENTRIES = ("r1", "r2", "r3", "r4")


def test_parse_script_single_line():
    s = parse_script("rename-top-level eval EvalMod fold1")
    assert s.steps == (RefactorStep("rename-top-level", ("eval", "EvalMod", "fold1"), 1),)


def test_parse_script_empty():
    assert parse_script("").steps == ()
    assert parse_script("# only a comment\n\n").steps == ()


def test_parse_script_arity_error():
    with pytest.raises(ScriptSyntaxError) as exc:
        parse_script("rename-top-level eval")
    assert exc.value.line == 1


@pytest.mark.parametrize("line, message", [
    ("generalise eval Const evalConst EvalMod x y tupled OtherType", "argument 5 of generalise"),
    ("new-def-fun-app eval two fp EvalMod", "argument 2 of new-def-fun-app"),
    ("generative-fold eval 1.5 EvalMod", "argument 2 of generative-fold"),
], ids=["generalise", "new-def-fun-app", "generative-fold"])
def test_parse_script_rejects_a_non_integer_int_argument(line, message):
    # refused while parsing, so the good step before it never runs
    with pytest.raises(ScriptSyntaxError) as exc:
        parse_script("clean-imports Client\n" + line)
    assert exc.value.line == 2
    assert str(exc.value) == f"{message} must be an integer (line 2)"


def test_readme_command_set_is_the_catalogue():
    # the README's command block lists each command with one word per argument
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    block = readme.split("The command set:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = [entry.split() for line in block.splitlines() for entry in re.split(r"\s{2,}", line.strip())]
    assert {words[0]: len(words) - 1 for words in listed} == {c: len(k) for c, (_, k) in CATALOGUE.items()}
    assert len(listed) == len(CATALOGUE)


def test_parse_script_unknown_command():
    with pytest.raises(ScriptSyntaxError):
        parse_script("explode-everything now")


def test_parse_script_comments_and_blanks():
    text = "# header\n\nclean-imports Client  # trailing\n"
    s = parse_script(text)
    assert len(s.steps) == 1
    assert s.steps[0].source_line == 3


def test_empty_script_is_identity(pfun):
    out, log = run_script(pfun, Script("empty", ()))
    assert out == pfun
    assert log.ok and log.records == []


def test_fail_fast_partial_result(pfun):
    text = (
        "exhibit-function eval Const evalConst EvalMod\n"
        "exhibit-function eval Add evalAdd EvalMod\n"
        "rename-top-level eval EvalMod Const\n"  # clashes with the imported constructor
    )
    script = parse_script(text)
    out, log = run_script(pfun, script)
    assert not log.ok
    assert [r.outcome for r in log.records] == ["applied", "applied", "failed"]
    assert "NameClash" in log.records[-1].error
    # the returned project reflects the last successful step
    d = out.modules["EvalMod"].decl("eval")
    assert d.equations[0].locals[0].name == "evalConst"
    assert "NameClash" in log.summary()


def test_composition(pfun, forward_script):
    k = 10
    s1 = Script("a", forward_script.steps[:k])
    s2 = Script("b", forward_script.steps[k:])
    via_parts, log1 = run_script(pfun, s1)
    assert log1.ok
    via_parts, log2 = run_script(via_parts, s2)
    assert log2.ok
    whole, log = run_script(pfun, forward_script)
    assert log.ok
    assert via_parts == whole


def test_replay_determinism(pfun, forward_script):
    out1, log1 = run_script(pfun, forward_script)
    out2, log2 = run_script(pfun, forward_script)
    assert out1 == out2
    assert [r.command for r in log1.records] == [r.command for r in log2.records]


def test_checked_mode_catches_behavior_change(pfun):
    # removing r4 changes the observations, so a checked run must abort
    script = parse_script("remove-def r4 Client")
    out, log = run_script(pfun, script, checked=True, entries=ENTRIES)
    assert not log.ok
    assert log.records[-1].equivalence == "fail"


def _rewrites_client(monkeypatch, old: str, new: str):
    """clean-imports then also replaces old by new in the text of Client."""
    def handler(p, s):
        client = render_module(p.modules["Client"]).replace(old, new)
        return Project({**p.modules, "Client": parse_module(client)})
    monkeypatch.setitem(COMMANDS, "clean-imports", (1, handler))


def test_checked_mode_names_what_diverged(pfun, monkeypatch):
    # a step whose observation differs with no error: the record says which
    # entry diverged and how, each text cut to 60 characters
    _rewrites_client(monkeypatch, "print (toString e1)", 'print "' + "x" * 100 + '"')
    out, log = run_script(pfun, parse_script("clean-imports Client"), checked=True, entries=ENTRIES)
    (record,) = log.records
    assert (record.outcome, record.equivalence, record.kind) == ("applied", "fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected '1+2', observed '" + "x" * 60 + "'..."
    assert observe_entries(out, ENTRIES)["r1"] == "x" * 100
    assert record.error in log.summary() and not log.ok


def test_checked_mode_names_every_diverging_entry(pfun, monkeypatch):
    _rewrites_client(monkeypatch, "Const 2)", "Const 5)")
    _, log = run_script(pfun, parse_script("clean-imports Client"), checked=True, entries=ENTRIES)
    assert log.records[0].kind == "NotEquivalent"
    assert log.records[0].error == (
        "NotEquivalent: r1 expected '1+2', observed '1+5'; r2 expected '3', observed '6'; "
        "r3 expected '1+2+3', observed '1+5+3'; r4 expected '6', observed '9'"
    )


def test_checked_mode_passes_for_forward(pfun, forward_script):
    out, log = run_script(pfun, forward_script, checked=True, entries=ENTRIES)
    assert log.ok
    assert all(r.equivalence == "pass" for r in log.records)


def test_snapshots_written(tmp_path, pfun):
    script = parse_script(
        "exhibit-function eval Const evalConst EvalMod\n"
        "exhibit-function eval Add evalAdd EvalMod\n"
    )
    out, log = run_script(pfun, script, snapshot_dir=str(tmp_path))
    assert (tmp_path / "step_000" / "EvalMod.mfn").exists()
    assert (tmp_path / "step_002" / "EvalMod.mfn").exists()
    snap = parse_project(str(tmp_path / "step_002"))
    assert alpha_eq_project(snap, out)


def test_default_entries_used_in_checked_runs(pfun):
    script = parse_script("clean-imports Client")
    out, log = run_script(pfun, script, checked=True)
    assert log.ok


# The moved body refers to g, which M does not export: the step must fail as
# a typed precondition and be logged, not escape as a resolution error.
UNEXPORTED_HELPER = "module M (f) where\n\ng = 1\n\nf = g + 1\n"


def test_failed_precondition_logs_its_kind(pfun):
    out, log = run_script(pfun, parse_script("remove-def nosuch Client"))
    assert [(r.outcome, r.equivalence, r.kind) for r in log.records] == [("failed", None, "NotFound")]
    assert log.records[0].error.startswith("NotFound:")
    assert out is pfun


def test_check_over_the_step_budget_logs_its_kind():
    # r1 is infinite data, so observing it meets the reduction budget
    project = Project({"M": parse_module(
        "module M where\n\ndata L = Nil | Cons (Int, L)\n\nones = Cons (1, ones)\n\n"
        "k = 1\n\nr1 = ones\n"
    )})
    out, log = run_script(project, parse_script("duplicate-into-comment k M"), checked=True, entries=("r1",))
    assert [(r.outcome, r.equivalence, r.kind) for r in log.records] == [("applied", "fail", "StepBudgetExceeded")]
    assert "reduction budget of 1000000 steps exceeded" in log.records[0].error


def test_unresolvable_result_fails_the_step(tmp_path):
    (tmp_path / "M.mfn").write_text(UNEXPORTED_HELPER)
    project = parse_project(str(tmp_path))
    out, log = run_script(project, parse_script("move-def f M N\n"))
    assert not log.ok
    assert [r.outcome for r in log.records] == ["failed"]
    assert log.records[0].error.startswith("PreconditionFailed:")
    assert log.records[0].kind == "PreconditionFailed"
    assert "M does not export g" in log.records[0].error
    assert out is project


@pytest.mark.parametrize("depth, record", [
    (400, ("applied", "fail", "nesting too deep", "NestingTooDeep")),  # the observation nests too deep
    (2000, ("failed", None, "nesting too deep", "NestingTooDeep")),  # the step itself does
], ids=["depth-400", "depth-2000"])
def test_too_deep_observation_fails_the_step(depth, record):
    # r1 = f (f (... (f 1))), depth applications deep: built as a tree, since
    # the parser's own stack would end first. Renaming f must rewrite r1; a
    # step that leaves r1 alone does not walk it again.
    mod = parse_module("module Client where\n\nf x = x + 1\n\nk = 1\n\nr1 = 0\n")
    deep = IntLit(1)
    for _ in range(depth):
        deep = App(Var("f"), deep)
    r1 = mod.decl("r1")
    r1 = replace(r1, equations=(replace(r1.equations[0], rhs=deep),))
    project = Project({"Client": replace(mod, decls=mod.decls[:2] + (r1,))})
    out, log = run_script(project, parse_script("rename-top-level f Client g"), checked=True)
    assert not log.ok
    assert [(r.outcome, r.equivalence, r.error, r.kind) for r in log.records] == [record]
    assert (out is project) == (record[0] == "failed")


def test_a_step_rewrites_a_900_term_sum(pfun):
    # r9 nests 900 sums deep: renaming eval rewrites r9's use of it, and
    # moving the renamed function requalifies that use again; each rewrite
    # recurses once per level of nesting, so both steps apply
    text = render_module(pfun.modules["Client"]) + "\nr9 = eval (Const (" + " + ".join(["1"] * 900) + "))\n"
    project = Project({**pfun.modules, "Client": parse_module(text)})
    out, log = run_script(project, parse_script("rename-top-level eval EvalMod ev2\nmove-def ev2 EvalMod Client\n"))
    assert [(r.outcome, r.kind) for r in log.records] == [("applied", None)] * 2
    assert out.modules["Client"].decl("ev2") is not None


_STEP_KEYS = {
    "index", "command", "args", "outcome", "kind", "error", "equivalence", "proof", "evaluated", "elapsed_s",
    "changed",
    "check_s", "reductions", "forcings",
}


def _render_diff(before_dir, after_dir) -> dict[str, list[str]]:
    """module -> names of the declarations whose rendering differs between
    two snapshot directories, for each module whose file differs."""
    out = {}
    files = sorted(set(os.listdir(before_dir)) | set(os.listdir(after_dir)))
    for fname in files:
        texts = []
        for d in (before_dir, after_dir):
            path = os.path.join(d, fname)
            texts.append(open(path).read() if os.path.exists(path) else None)
        if texts[0] == texts[1]:
            continue
        old, new = ({decl_name(x): render_decl(x) for x in parse_module(t).decls} if t else {}
                    for t in texts)
        out[fname[:-4]] = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    return out


def test_trace_records_each_step_and_the_declarations_it_changed(pfun, forward_script, tmp_path):
    origin = EvalStats()
    observe_entries(pfun, ENTRIES, stats=origin)
    _, log = run_script(pfun, forward_script, checked=True, entries=ENTRIES, snapshot_dir=str(tmp_path))
    lines = log.to_json().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == len(forward_script.steps) + 1
    for step, record in zip(forward_script.steps, records):
        assert set(record) == _STEP_KEYS
        assert (record["command"], record["args"]) == (step.command, list(step.args))
        assert (record["outcome"], record["kind"], record["equivalence"]) == ("applied", None, "pass")
        assert isinstance(record["elapsed_s"], float) and record["elapsed_s"] > 0
        assert 0 < record["check_s"] < record["elapsed_s"]
        if record["proof"] in ("renaming", "unfolding"):  # every entry proved without evaluation
            cost = (origin.steps, origin.forcings) if record["index"] == 1 else (0, 0)  # step 1 observes the origin
            assert (record["evaluated"], record["reductions"], record["forcings"]) == ([], *cost)
        else:
            assert record["proof"] == "observed"
            assert set(record["evaluated"]) <= set(ENTRIES) and record["evaluated"]
            assert record["reductions"] > 0 and record["forcings"] > 0
        before = tmp_path / f"step_{record['index'] - 1:03d}"
        after = tmp_path / f"step_{record['index']:03d}"
        assert record["changed"] == _render_diff(before, after), str(step)
    assert sum(r["proof"] == "renaming" for r in records[:-1]) == 20
    assert sum(r["proof"] == "unfolding" for r in records[:-1]) == 26
    assert sum(len(r["evaluated"]) for r in records[:-1]) == 10
    summary = records[-1]["summary"]
    assert set(summary) == {"script", "steps", "applied", "ok", "elapsed_s", "peak_rss_mb"}
    assert (summary["steps"], summary["applied"], summary["ok"]) == (51, 51, True)


def test_trace_of_a_failed_step_holds_its_kind():
    project = Project({"M": parse_module("module M where\n\nk = 1\n")})
    _, log = run_script(project, parse_script("remove-def nosuch M\n"))
    step, summary = map(json.loads, log.to_json().splitlines())
    assert (step["outcome"], step["kind"], step["changed"]) == ("failed", "NotFound", {})
    assert step["error"].startswith("NotFound: ")
    assert (step["proof"], step["evaluated"], step["check_s"], step["reductions"], step["forcings"]) == (None,) * 5
    assert (summary["summary"]["applied"], summary["summary"]["ok"]) == (0, False)


def test_unchecked_trace_has_no_check_cost(pfun, forward_script):
    _, log = run_script(pfun, forward_script)
    assert log.ok
    assert {(r.proof, r.evaluated, r.check_s, r.reductions, r.forcings) for r in log.records} == {(None,) * 5}


def _observed(monkeypatch) -> list[Project]:
    """The projects the script engine observes, in call order."""
    seen = []

    def counted(project, entries, *args, **kwargs):
        seen.append(project)
        return observe_entries(project, entries, *args, **kwargs)

    monkeypatch.setattr(script, "observe_entries", counted)
    return seen


def test_checked_run_observes_the_origin_once(pfun, forward_script, pdata, reverse_script, monkeypatch):
    # then each of the 5 steps on which the certificate leaves an entry
    # unproved; the origin is observed before step 1 is offered to the
    # certificate, which proves forward's opening exhibit-function by
    # unfolding and reverse's opening duplicate-into-comment by renaming
    seen = _observed(monkeypatch)
    _, log = run_script(pfun, forward_script, checked=True, entries=ENTRIES)
    assert log.ok and log.records[0].proof == "unfolding"
    assert [p is pfun for p in seen] == [True] + [False] * 5
    seen.clear()
    _, log = run_script(pdata, reverse_script, checked=True, entries=ENTRIES)
    assert log.ok and log.records[0].proof == "renaming"
    assert [p is pdata for p in seen] == [True] + [False] * 4


def test_checked_run_whose_first_step_fails_observes_nothing(pfun, monkeypatch):
    seen = _observed(monkeypatch)
    _, log = run_script(pfun, parse_script("remove-def nosuch Client\nclean-imports Client\n"), checked=True)
    assert [r.outcome for r in log.records] == ["failed"]
    assert seen == []


def test_move_def_gives_back_every_declaration_it_did_not_move(pfun, forward_script):
    # viewshift op calls the operation itself: uses of the moved function
    # keep their access where it still reads the same, so each declaration
    # other than the moved one is the object the input held
    project, moves = pfun, 0
    for step in forward_script.steps:
        if step.command != "move-def":
            project = COMMANDS[step.command][1](project, step)
            continue
        f, m, mp = step.args
        out = refactorings.move_def(project, f, m, mp)
        kept = [
            (name, decl_name(d)) for name, mod in out.modules.items() for d in mod.decls
            if (name, decl_name(d)) != (mp, f)
            and d is not project.modules[name].decl(decl_name(d))
        ]
        assert kept == [], str(step)
        project, moves = out, moves + 1
    assert moves == 6
