import json
import os
import re

import pytest

from viewshift.cli import main
from viewshift.script import CATALOGUE


@pytest.fixture
def dirs(tmp_path):
    pfun_dir = tmp_path / "pfun"
    pdata_dir = tmp_path / "pdata"
    scripts = tmp_path / "scripts"
    assert main(["corpus", "extract", "pfun", "--out", str(pfun_dir)]) == 0
    assert main(["corpus", "extract", "pdata", "--out", str(pdata_dir)]) == 0
    assert main(["corpus", "extract", "forward-script", "--out", str(scripts)]) == 0
    assert main(["corpus", "extract", "reverse-script", "--out", str(scripts)]) == 0
    return tmp_path


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_apply_then_alpha_eq(dirs, capsys):
    build = dirs / "build"
    code = main([
        "apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pfun"),
        "--out", str(build), "--checked", "--entries", "r1,r2,r3,r4",
    ])
    assert code == 0
    assert main(["alpha-eq", str(build), str(dirs / "pdata")]) == 0
    out = capsys.readouterr().out
    assert "alpha-equivalent" in out


def test_apply_never_modifies_input(dirs):
    before = _dir_bytes(dirs / "pfun")
    main([
        "apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pfun"),
        "--out", str(dirs / "b2"),
    ])
    assert _dir_bytes(dirs / "pfun") == before


def test_apply_wrong_view_fails_with_explanation(dirs, capsys):
    code = main([
        "apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pdata"),
        "--out", str(dirs / "b3"),
    ])
    assert code == 1
    out = capsys.readouterr()
    assert "NotFound" in out.out  # the failing precondition is named


def test_obs_eq(dirs, capsys):
    code = main([
        "obs-eq", str(dirs / "pfun"), str(dirs / "pdata"),
        "--entries", "r1,r2,r3,r4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("==") == 4


def test_obs_eq_default_entries(dirs):
    assert main(["obs-eq", str(dirs / "pfun"), str(dirs / "pdata")]) == 0


def test_obs_eq_entries_naming_none_take_the_defaults(dirs, capsys):
    assert main(["obs-eq", str(dirs / "pfun"), str(dirs / "pdata"), "--entries", ",,,"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == ["r1", "r2", "r3", "r4"]


def test_entries_with_blanks_around_names(dirs, capsys):
    assert main(["obs-eq", str(dirs / "pfun"), str(dirs / "pfun"), "--entries", "r1, r2"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]] == ["r1", "r2"]
    assert main([
        "apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pfun"),
        "--out", str(dirs / "b4"), "--checked", "--entries", " r1 , r2 ",
    ]) == 0


@pytest.mark.parametrize("option", [[], ["--entries", ","]], ids=["no-option", "empty-names"])
def test_obs_eq_without_any_entry_exits_2(tmp_path, capsys, option):
    # nothing compared is no verdict: M has no Client r* to default to
    (tmp_path / "M.mfn").write_text("module M where\n\nk = 1\n")
    assert main(["obs-eq", str(tmp_path), str(tmp_path), *option]) == 2
    assert capsys.readouterr() == ("", "obs-eq: no entry to compare: name one with --entries\n")


@pytest.mark.parametrize("option", [[], ["--entries", ","]], ids=["no-option", "empty-names"])
def test_checked_apply_without_any_entry_exits_2(tmp_path, capsys, option):
    # a checked run that compares nothing proves nothing: no step runs and
    # nothing is written
    (tmp_path / "M.mfn").write_text("module M where\n\nk = 1\n")
    script = tmp_path / "s.vs"
    script.write_text("rename-top-level k M j\n")
    out = tmp_path / "out"
    code = main(["apply", str(script), str(tmp_path), "--out", str(out), "--checked", *option])
    assert code == 2 and not out.exists()
    assert capsys.readouterr() == ("", "apply --checked: no entry to compare: name one with --entries\n")


def test_eval_entry(dirs, capsys):
    assert main(["eval", str(dirs / "pfun"), "r2"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["eval", str(dirs / "pfun"), "Client.r3"]) == 0
    assert capsys.readouterr().out.strip() == "1+2+3"


def test_eval_reads_a_name_the_module_defines_though_an_import_binds_it(dirs, capsys):
    # EvalMod.r1 reaches Client through its import: Client's own r1 is read
    # as Client.r1, while a name Client only imports is still looked up
    with open(dirs / "pfun" / "EvalMod.mfn", "a") as fh:
        fh.write("\nr1 = 42\n")
    for entry, shown in [("r1", "1+2"), ("Client.r1", "1+2"), ("EvalMod.r1", "42"), ("Client.eval", "<eval>")]:
        assert main(["eval", str(dirs / "pfun"), entry]) == 0
        assert capsys.readouterr() == (shown + "\n", "")


def test_render_fixed_point(dirs):
    r1 = dirs / "r1"
    r2 = dirs / "r2"
    assert main(["render", str(dirs / "pfun"), "--out", str(r1)]) == 0
    assert main(["render", str(r1), "--out", str(r2)]) == 0
    assert _dir_bytes(r1) == _dir_bytes(r2)


def test_single_op(dirs, capsys):
    out = dirs / "op_out"
    code = main([
        "op", "rename-top-level", "eval", "EvalMod", "fold1",
        str(dirs / "pfun"), "--out", str(out),
    ])
    assert code == 0
    with open(out / "EvalMod.mfn") as fh:
        assert "fold1" in fh.read()


def test_op_failure_exit_code(dirs, capsys):
    code = main([
        "op", "remove-def", "eval", "EvalMod", str(dirs / "pfun"),
        "--out", str(dirs / "op_fail"),
    ])
    assert code == 1
    assert "StillUsed" in capsys.readouterr().err


@pytest.mark.parametrize("tokens, message", [
    (["frobnicate", "eval"], "unknown command 'frobnicate'"),
    (["rename-top-level", "eval", "EvalMod"], "rename-top-level takes 3 argument(s), got 2"),
    (["generalise", "eval", "Const", "evalConst", "EvalMod", "x", "y", "tupled", "OtherType"],
     "argument 5 of generalise must be an integer (line 1)"),
], ids=["unknown-command", "wrong-arity", "non-integer"])
def test_op_usage_errors(dirs, capsys, tokens, message):
    out = dirs / "op_usage"
    assert main(["op", *tokens, str(dirs / "pfun"), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_op_without_a_project_lists_the_signatures(capsys):
    assert main(["op", "rename-top-level", "--out", "unused"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "op needs a command, its arguments and a project directory; the commands:"
    assert "  rename-top-level fun mod new" in err
    assert "  generalise fun con local mod int new curried|tupled RecType|OtherType" in err
    assert len(err) == 1 + len(CATALOGUE)


def test_op_help_lists_every_command(capsys):
    assert main(["op", "--help"]) == 0
    out = capsys.readouterr().out.splitlines()
    for command, (_, kinds) in CATALOGUE.items():
        assert f"  {command} {' '.join(kinds)}" in out


def test_apply_non_integer_argument_exits_2_before_any_step(dirs, capsys):
    # the first step would apply; the script is refused as a whole
    bad = dirs / "int.vs"
    bad.write_text("duplicate-into-comment eval EvalMod\ngenerative-fold eval k EvalMod\n")
    out = dirs / "int_out"
    assert main(["apply", str(bad), str(dirs / "pfun"), "--out", str(out), "--checked"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: argument 2 of generative-fold must be an integer (line 2)\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["+1", "1_0", "١"], ids=["plus-sign", "underscore", "arabic-indic-digit"])
def test_apply_int_argument_of_other_than_ascii_digits_exits_2(dirs, capsys, count):
    # Python's int() reads each of these; the object language's lexer does not
    bad = dirs / "int.vs"
    bad.write_text(f"duplicate-into-comment eval EvalMod\ngenerative-fold eval {count} EvalMod\n", encoding="utf-8")
    out = dirs / "int_out"
    assert main(["apply", str(bad), str(dirs / "pfun"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: argument 2 of generative-fold must be an integer (line 2)\n"
    assert not out.exists()


def test_checked_rename_to_an_entry_name_passes(dirs, capsys):
    # EvalMod.r1 and Client's entry r1 both reach Client: the oracles look
    # the entry up in its home module, so the unchanged program passes
    script = dirs / "rename.vs"
    script.write_text("rename-top-level eval EvalMod r1\n")
    out = dirs / "rename_out"
    assert main(["apply", str(script), str(dirs / "pfun"), "--out", str(out), "--checked"]) == 0
    assert "[applied, equivalence pass]" in capsys.readouterr().out
    assert main(["obs-eq", str(dirs / "pfun"), str(out), "--entries", "r1,r2"]) == 0
    assert capsys.readouterr().out == "r1: '1+2' == '1+2'\nr2: '3' == '3'\nobservationally equivalent\n"


def test_usage_errors(dirs, capsys):
    assert main(["corpus", "extract", "nosuch", "--out", str(dirs / "x")]) == 2
    assert main(["frobnicate"]) == 2
    # script syntax error
    bad = dirs / "bad.vs"
    bad.write_text("rename-top-level eval\n")
    assert main(["apply", str(bad), str(dirs / "pfun"), "--out", str(dirs / "y")]) == 2


def test_alpha_eq_differs(dirs):
    assert main(["alpha-eq", str(dirs / "pfun"), str(dirs / "pdata")]) == 1


def test_extract_step_states(dirs):
    out = dirs / "steps"
    assert main(["corpus", "extract", "step-states", "--out", str(out)]) == 0
    assert (out / "step04" / "EvalMod.mfn").exists()
    assert (out / "step11" / "Client.mfn").exists()


def test_apply_unresolvable_step_exits_1_with_summary(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "M.mfn").write_text("module M (f) where\n\ng = 1\n\nf = g + 1\n")
    script = tmp_path / "move.vs"
    script.write_text("move-def f M N\n")
    code = main(["apply", str(script), str(src), "--out", str(tmp_path / "out")])
    assert code == 1
    out = capsys.readouterr().out
    assert "move-def f M N" in out and "[failed]" in out
    assert "PreconditionFailed: M does not export g" in out
    assert "0/1 step(s) applied" in out


def test_apply_checked_divergence_exits_1_naming_the_entry(tmp_path, capsys, monkeypatch):
    # a step that changes r1's value applies, then fails its check
    from viewshift import lang, script
    from viewshift.parse import parse_module

    def changes_r1(p, s):
        return lang.rewritten(p, {"M": parse_module("module M where\n\nk = 1\n\nr1 = 3\n")})

    monkeypatch.setitem(script.COMMANDS, "clean-imports", (1, changes_r1))
    src = tmp_path / "src"
    src.mkdir()
    (src / "M.mfn").write_text("module M where\n\nk = 1\n\nr1 = 2\n")
    (tmp_path / "clean.vs").write_text("clean-imports M\n")
    code = main(["apply", str(tmp_path / "clean.vs"), str(src), "--out", str(tmp_path / "out"),
                 "--checked", "--entries", "r1", "--trace", str(tmp_path / "trace.jsonl")])
    assert code == 1
    out = capsys.readouterr().out
    assert "[applied, equivalence fail]" in out and "NotEquivalent: r1 expected '2', observed '3'" in out
    record = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    assert (record["kind"], record["equivalence"]) == ("NotEquivalent", "fail")
    assert record["error"] == "NotEquivalent: r1 expected '2', observed '3'"


def test_apply_unresolved_input_exits_1(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "M.mfn").write_text("module M where\n\ng = h\n")
    script = tmp_path / "noop.vs"
    script.write_text("clean-imports M\n")
    code = main(["apply", str(script), str(src), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot resolve h in module M" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    ("data L = Nil | Cons (Int, L)\n\nones = Cons (1, ones)\n\nr1 = ones\n",
     "reduction budget of 1000000 steps exceeded"),
], ids=["infinite-data"])
def test_eval_too_deep_exits_1_without_traceback(tmp_path, capsys, body, message):
    (tmp_path / "M.mfn").write_text("module M where\n\n" + body)
    assert main(["eval", str(tmp_path), "r1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_non_ascii_digit_exits_2_without_traceback(tmp_path, capsys):
    # str.isdigit holds for "²", but only ASCII digits start an integer
    (tmp_path / "M.mfn").write_text("module M where\n\nr1 = \u00b2\n", encoding="utf-8")
    assert main(["eval", str(tmp_path), "r1"]) == 2
    path = tmp_path / "M.mfn"
    assert capsys.readouterr().err == f"parse error: {path}: unexpected character '\u00b2' (line 3, column 5)\n"


def test_eval_input_nested_too_deep_to_parse_exits_2(tmp_path, capsys):
    # the parser runs out of stack inside the parentheses and says where
    (tmp_path / "M.mfn").write_text("module M where\n\nr1 = " + "(" * 400 + "1" + ")" * 400 + "\n")
    assert main(["eval", str(tmp_path), "r1"]) == 2
    prefix = re.escape(f"parse error: {tmp_path / 'M.mfn'}: ")
    m = re.fullmatch(prefix + r"nesting too deep \(line 3, column (\d+)\)\n", capsys.readouterr().err)
    assert m and 5 < int(m.group(1)) < 5 + 400


def test_apply_checked_too_deep_observation_exits_1_with_summary(tmp_path, capsys):
    # len is not tail recursive, so observing r1 exhausts the host stack
    src = tmp_path / "src"
    src.mkdir()
    (src / "M.mfn").write_text(
        "module M where\n\ndata L = Nil | Cons (Int, L)\n\nones = Cons (1, ones)\n\n"
        "len (Cons (x, t)) = 1 + len t\n\nk = 1\n\nr1 = print (show (len ones))\n"
    )
    script = tmp_path / "dup.vs"
    script.write_text("duplicate-into-comment k M\n")
    code = main(["apply", str(script), str(src), "--out", str(tmp_path / "out"),
                 "--checked", "--entries", "r1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[applied, equivalence fail]" in out and "nesting too deep" in out
    assert "1/1 step(s) applied" in out


# r1 is a 2,000-element list: evaluated in a loop, so its depth is in the value only
LONG_LIST = (
    "module Client where\n\ndata L = Nil | Cons (Int, L)\n\n"
    "build 2000 acc = acc\nbuild n acc = build (n + 1) (Cons (1, acc))\n\nk = 1\n\nr1 = build 0 Nil\n"
)
LONG_LIST_SHOWN = "Cons (1, " * 2000 + "Nil" + ")" * 2000


def test_eval_shows_a_long_list(tmp_path, capsys):
    (tmp_path / "Client.mfn").write_text(LONG_LIST)
    assert main(["eval", str(tmp_path), "r1"]) == 0
    assert capsys.readouterr().out == LONG_LIST_SHOWN + "\n"


def test_apply_checked_observes_a_long_list(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Client.mfn").write_text(LONG_LIST)
    script = tmp_path / "dup.vs"
    script.write_text("duplicate-into-comment k Client\n")
    code = main(["apply", str(script), str(src), "--out", str(tmp_path / "out"), "--checked"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[applied, equivalence pass]" in out and "1/1 step(s) applied" in out


@pytest.fixture
def unreadable(dirs):
    """A project whose module holds the byte 0xff, a script holding it, and a
    regular file standing where a directory is expected."""
    bad = dirs / "bad"
    bad.mkdir()
    (bad / "M.mfn").write_bytes(b"module M where\n\nr1 = \"\xff\"\n")
    (dirs / "bad.vs").write_bytes(b"clean-imports \xff\n")
    (dirs / "file").write_text("not a directory\n")
    return dirs


# {p}: a readable project, {s}: a readable script, {x}: a fresh output path
_MISSING = [
    ("apply {missing}.vs {p} --out {x}", "{missing}.vs"),
    ("apply {s} {missing} --out {x}", "{missing}"),
    ("apply {s} {p} --out {file}", "{file}"),
    ("apply {s} {p} --out {x} --snapshots {file}", "{file}/step_000"),
    ("apply {s} {p} --out {x} --trace {missing}/t.jsonl", "{missing}/t.jsonl"),
    ("op clean-imports Client {missing} --out {x}", "{missing}"),
    ("op clean-imports Client {p} --out {file}", "{file}"),
    ("alpha-eq {missing} {p}", "{missing}"),
    ("alpha-eq {p} {missing}", "{missing}"),
    ("obs-eq {missing} {p}", "{missing}"),
    ("eval {missing} r1", "{missing}"),
    ("eval {file} r1", "{file}"),
    ("render {missing} --out {x}", "{missing}"),
    ("render {p} --out {file}", "{file}"),
    ("corpus extract pfun --out {file}", "{file}"),
]


def _id(command: str) -> str:
    """apply {s} {missing} --out {x} -> apply-s-missing-out-x"""
    return re.sub(r"\W+", "-", command).strip("-")


@pytest.mark.parametrize("command, path", _MISSING, ids=[_id(c) for c, _ in _MISSING])
def test_missing_path_exits_2_naming_it(unreadable, capsys, command, path):
    names = {"p": unreadable / "pfun", "s": unreadable / "scripts" / "forward.vs",
             "x": unreadable / "out", "missing": unreadable / "nosuch", "file": unreadable / "file"}
    assert main(command.format(**names).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.format(**names)}: ") and err.count("\n") == 1


_NOT_UTF8 = [
    ("apply {bad}.vs {p} --out {x}", "{bad}.vs", 1, 14),
    ("apply {s} {bad} --out {x}", "{bad}/M.mfn", 3, 6),
    ("op clean-imports M {bad} --out {x}", "{bad}/M.mfn", 3, 6),
    ("alpha-eq {p} {bad}", "{bad}/M.mfn", 3, 6),
    ("obs-eq {bad} {p}", "{bad}/M.mfn", 3, 6),
    ("eval {bad} r1", "{bad}/M.mfn", 3, 6),
    ("render {bad} --out {x}", "{bad}/M.mfn", 3, 6),
]


@pytest.mark.parametrize("command, path, line, col", _NOT_UTF8, ids=[_id(c) for c, *_ in _NOT_UTF8])
def test_file_not_utf8_exits_2_naming_it(unreadable, capsys, command, path, line, col):
    names = {"p": unreadable / "pfun", "s": unreadable / "scripts" / "forward.vs",
             "x": unreadable / "out", "bad": unreadable / "bad"}
    assert main(command.format(**names).split()) == 2
    assert capsys.readouterr().err == (
        f"parse error: {path.format(**names)}: not UTF-8 (invalid start byte, byte 0xff)"
        f" (line {line}, column {col})\n"
    )
    assert not (unreadable / "out").exists()


def test_apply_trace_writes_one_record_per_step_and_a_summary(dirs):
    trace = dirs / "run.jsonl"
    code = main(["apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pfun"),
                 "--out", str(dirs / "build"), "--trace", str(trace)])
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["index"] for r in records[:-1]] == list(range(1, 52))
    assert records[-1]["summary"]["steps"] == 51 and records[-1]["summary"]["ok"] is True


def test_checked_apply_trace_says_how_each_step_was_decided(dirs):
    # a proved step evaluates nothing on its result; step 1 alone also
    # counts the one observation of the origin
    trace = dirs / "run.jsonl"
    code = main(["apply", str(dirs / "scripts" / "forward.vs"), str(dirs / "pfun"), "--checked",
                 "--out", str(dirs / "build"), "--trace", str(trace)])
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()[:-1]]
    assert {r["proof"] for r in records} == {"renaming", "unfolding", "observed"}
    proved = [r for r in records if r["proof"] != "observed"]
    assert all(r["evaluated"] == [] for r in proved)
    assert all(r["reductions"] == 0 for r in proved if r["index"] > 1)
    assert [r["reductions"] > 0 for r in records if r["proof"] == "observed"] == [True] * 5
