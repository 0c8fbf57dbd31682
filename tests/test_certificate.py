"""Certificates, up to renaming and up to unfolding: a step they prove
observes as its input does, and the wrong steps they refuse are caught by
observation."""

import pytest

from viewshift import script
from viewshift.corpus import load_fixture
from viewshift.evaluator import EvalError, EvalStats, default_entries, observe_entries
from viewshift.lang import Project, changed_modules, replace
from viewshift.parse import parse_module
from viewshift.refactorings import rename_top_level
from viewshift.reference import observe_entries_by_name
from viewshift.resolver import resolve_project
from viewshift.script import COMMANDS, parse_script, renaming_certificate, run_script

# The kinds of step that only rename, move, drop an unused declaration, or
# edit imports or comments.
RENAMING = {"rename-top-level", "move-def", "remove-def", "clean-imports", "rm-comment-before",
            "duplicate-into-comment"}
# The kinds of step that introduce, abstract, lift, unfold or fold a
# definition, which the certificate proves up to unfolding; so does
# generalise-ident of a where-local, but not of a top-level function.
UNFOLDING = {"exhibit-function", "generalise", "lift-def", "unfold-instance", "new-def-fun-app", "fold-def"}


def _expected_proof(before: Project, step) -> str:
    """How a checked run of the shipped scripts decides a step of its kind."""
    if step.command in RENAMING:
        return "renaming"
    local = step.command == "generalise-ident" and before.modules[step.args[1]].decl(step.args[0]) is None
    return "unfolding" if step.command in UNFOLDING or local else "observed"


def _replaced(before: Project, after: Project) -> set[str]:
    return changed_modules(before.modules, after.modules, before.modules.keys() | after.modules.keys())


def _project(*texts: str) -> Project:
    project = Project({m.name: m for m in map(parse_module, texts)})
    resolve_project(project)
    return project


SHIPPED = [
    ("pfun", "forward-script", "forward"), ("pdata", "reverse-script", "reverse"),
    ("scenario-mult", "scenario-mult", "reverse-mult"), ("scenario-derive", "scenario-derive", "forward-derive"),
]


@pytest.mark.parametrize("origin, scripts, name, certified, entries_proved", [
    ("pfun", "forward-script", "forward", 46, 194),
    ("pdata", "reverse-script", "reverse", 18, 80),
    ("scenario-mult", "scenario-mult", "reverse-mult", 23, 150),
    ("scenario-derive", "scenario-derive", "forward-derive", 68, 436),
], ids=["forward", "reverse", "reverse-mult", "forward-derive"])
def test_a_certified_step_of_a_shipped_script_observes_as_its_input(origin, scripts, name, certified,
                                                                     entries_proved):
    # Every step, step 1 included, is offered to the certificate against its
    # input's observation; both oracles confirm each entry it proves. It
    # proves every entry of each step of the renaming kinds by renaming,
    # every entry of each step of the unfolding kinds by unfolding, and
    # every entry of no other step.
    project, run = load_fixture(origin).project, load_fixture(scripts).scripts[name]
    entries = tuple(default_entries(project))
    expected = observe_entries(project, entries)
    steps, proved_entries = 0, 0
    for step in run.steps:
        before, project = project, COMMANDS[step.command][1](project, step)
        proof = renaming_certificate(before, project, entries, expected, _replaced(before, project))
        proved = [e for e in entries if e in proof]
        shown = {e: expected[e] for e in proved}
        assert observe_entries(project, proved) == shown, str(step)
        assert observe_entries_by_name(project, proved) == shown, str(step)
        decided = ("unfolding" if proof.unfolding else "renaming") if len(proved) == len(entries) else "observed"
        assert decided == _expected_proof(before, step), str(step)
        steps += decided != "observed"
        proved_entries += len(proved)
    assert (steps, proved_entries) == (certified, entries_proved)


def test_a_checked_run_proves_the_steps_the_certificate_does():
    # on each shipped script; top-level generalise-ident, generative-fold,
    # case-to-eq and unify-alpha stay observed
    observed = set()
    for origin, scripts, name in SHIPPED:
        project, run = load_fixture(origin).project, load_fixture(scripts).scripts[name]
        _, log = run_script(project, run, checked=True)
        assert log.ok
        expected = []
        for step in run.steps:
            expected.append(_expected_proof(project, step))
            project = COMMANDS[step.command][1](project, step)
        assert [r.proof for r in log.records] == expected, name
        observed |= {step.command for step, proof in zip(run.steps, expected) if proof == "observed"}
    assert observed == {"generalise-ident", "generative-fold", "case-to-eq", "unify-alpha"}


def _checked_run(monkeypatch, before: Project, after: Project, entries):
    """The checked run of two steps, the first giving before back, which
    the certificate proves, and the second giving after."""
    results = iter([before, after])
    monkeypatch.setitem(script.COMMANDS, "clean-imports", (1, lambda project, step: next(results)))
    _, log = run_script(before, parse_script("clean-imports Client\nclean-imports Client\n"), checked=True,
                        entries=entries)
    assert [(r.outcome, r.proof) for r in log.records] == [("applied", "renaming"), ("applied", "observed")]
    assert log.records[0].equivalence == "pass"
    return log.records[1]


def _refused_then_observed(monkeypatch, before: Project, after: Project, entries=("r1",)):
    """The second step of _checked_run, once the certificate is seen to
    refuse after on every entry."""
    expected = observe_entries(before, entries)
    assert not renaming_certificate(before, after, entries, expected, _replaced(before, after))
    return _checked_run(monkeypatch, before, after, entries)


_CAPTURE = "module Client where\n\nk = 10\n\nh x = {} + x\n\nr1 = h 1\n"


def test_a_renaming_without_capture_is_proved():
    before = _project(_CAPTURE.format("k"))
    after = rename_top_level(before, "k", "Client", "y")
    assert renaming_certificate(before, after, ("r1",), {"r1": "11"}, _replaced(before, after))


def test_a_renaming_that_captures_a_name_is_refused(monkeypatch):
    # k renamed to x: h's parameter x captures the use of k
    before = _project(_CAPTURE.format("k"))
    after = _project(_CAPTURE.replace("k = 10", "x = 10").format("x"))
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected '11', observed '2'"


def test_a_wrong_change_is_evaluated_on_the_one_entry_that_reaches_it(monkeypatch):
    # the capturing renaming above, with two entries that reach neither k
    # nor h: they are proved, and only r1 is evaluated and fails
    text = _CAPTURE + "\nr2 = 5\n\nr3 = r2 + 1\n"
    before = _project(text.format("k"))
    after = _project(text.replace("k = 10", "x = 10").format("x"))
    entries = ("r1", "r2", "r3")
    expected = observe_entries(before, entries)
    assert renaming_certificate(before, after, entries, expected, _replaced(before, after)) == {"r2", "r3"}
    record = _checked_run(monkeypatch, before, after, entries)
    assert (record.equivalence, record.kind, record.evaluated) == ("fail", "NotEquivalent", ["r1"])
    assert record.error == "NotEquivalent: r1 expected '11', observed '2'"


def test_a_renaming_that_leaves_a_use_unresolved_is_refused(monkeypatch):
    before = _project(_CAPTURE.format("k"))
    after = Project({"Client": parse_module(_CAPTURE.replace("k = 10", "z = 10").format("k"))})
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "UnresolvedName")


def test_an_entry_whose_value_shows_a_closure_is_refused(monkeypatch):
    # a closure shows its function's name, which the renaming changes
    before = _project("module Client where\n\nf y = y + 1\n\nr1 = f\n")
    after = rename_top_level(before, "f", "Client", "g")
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected '<f>', observed '<g>'"


def test_an_entry_that_shows_a_closure_is_proved_while_each_name_it_can_show_stays():
    # φ is the identity here; a where-local's name is a bound name, which
    # alpha-equivalence lets a step change, but its closure shows it
    text = "module Client where\n\nf y = {0}\n  where\n    {0} z = z + y\n\nr1 = f 1\n"
    before, same, renamed = _project(text.format("g")), _project(text.format("g")), _project(text.format("h"))
    assert renaming_certificate(before, same, ("r1",), {"r1": "<g>"}, _replaced(before, same)) == {"r1"}
    assert renaming_certificate(before, renamed, ("r1",), {"r1": "<g>"}, _replaced(before, renamed)) == set()
    assert observe_entries(renamed, ("r1",)) == {"r1": "<h>"}


def test_a_second_zero_argument_binding_of_an_entry_name_is_refused(monkeypatch):
    # no module imports M, so the rename is legal, but r1 no longer has one home
    before = _project("module Client where\n\nr1 = 1\n", "module M where\n\nk = 2\n")
    after = rename_top_level(before, "k", "M", "r1")
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "UnresolvedName")
    assert "entry r1 is defined in several modules" in record.error


def test_an_import_that_redirects_a_kept_declaration_is_refused(monkeypatch):
    # Client's declarations are the same objects, but f now comes from B
    before = _project("module Client where\n\nimport A\n\nr1 = f\n", "module A where\n\nf = 1\n",
                      "module B where\n\nf = 2\n")
    client = before.modules["Client"]
    after = Project({**before.modules, "Client": replace(client, imports=("B",))})
    assert after.modules["Client"].decls is client.decls
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected '1', observed '2'"


def test_a_changed_constructor_is_refused(monkeypatch):
    # the constructor renamed with its use: an observation shows its name
    text = "module Client where\n\ndata T = {0} | B\n\nr1 = {0}\n"
    before, after = _project(text.format("A")), _project(text.format("C"))
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected 'A', observed 'C'"


# --- refusals of the unfolding verdict ---


def _diverges(project: Project) -> None:
    with pytest.raises(EvalError) as exc:
        observe_entries(project, ("r1",), budget=10_000)
    assert exc.value.kind == "StepBudgetExceeded"


def test_a_self_fold_is_refused():
    # f's body folded into f itself: f does not unfold, since it reaches itself
    before = _project("module Client where\n\nf x = x + 1\n\nr1 = f 1\n")
    after = _project("module Client where\n\nf x = f x\n\nr1 = f 1\n")
    assert not renaming_certificate(before, after, ("r1",), {"r1": "2"}, _replaced(before, after))
    _diverges(after)


def test_a_fold_that_makes_mutual_recursion_is_refused():
    # each of f and g reaches itself through the other
    before = _project("module Client where\n\nf x = x + 1\n\ng x = x + 1\n\nr1 = f 1\n")
    after = _project("module Client where\n\nf x = g x\n\ng x = f x\n\nr1 = f 1\n")
    assert not renaming_certificate(before, after, ("r1",), {"r1": "2"}, _replaced(before, after))
    _diverges(after)


def test_a_self_application_unfolds_once_and_is_refused():
    # w does not reach itself through its reads, yet w w unfolds to w w: the
    # comparison ends because w is unfolded at most once along a path
    before = _project("module Client where\n\nw x = x x\n\nf y = y\n\nr1 = f 2\n")
    after = _project("module Client where\n\nw x = x x\n\nf y = w w\n\nr1 = f 2\n")
    assert not renaming_certificate(before, after, ("r1",), {"r1": "2"}, _replaced(before, after))
    _diverges(after)


def test_an_under_applied_local_is_refused(monkeypatch):
    # k's one use passes it unapplied, so rule 1 leaves it in place
    before = _project("module Client where\n\nap h v = h v\n\nf x = x + 1\n\nr1 = f 1\n")
    after = _project("module Client where\n\nap h v = h v\n\nf x = ap k x\n  where\n    k y = y + 1\n\nr1 = f 1\n")
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.proof, record.evaluated) == ("pass", "observed", ["r1"])


def test_an_under_applied_definition_is_refused(monkeypatch):
    # neither plus 1 nor p1 is a saturated call, so neither side unfolds
    text = "module Client where\n\nap h v = h v\n\nplus a b = a + b\n\n{}r1 = ap {} 2\n"
    before = _project(text.format("", "(plus 1)"))
    after = _project(text.format("p1 b = plus 1 b\n\n", "p1"))
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.proof, record.evaluated) == ("pass", "observed", ["r1"])


def test_a_local_whose_inlining_would_capture_a_name_is_refused(monkeypatch):
    # k reads f's parameter x, which the case rebinds where k is used
    before = _project("module Client where\n\nf x = case 1 of\n    x -> x + 10\n\nr1 = f 5\n")
    after = _project("module Client where\n\nf x = case 1 of\n    x -> k\n  where\n    k = x + 10\n\nr1 = f 5\n")
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "NotEquivalent")
    assert record.error == "NotEquivalent: r1 expected '11', observed '15'"


def test_a_made_definition_that_is_an_entry_is_refused(monkeypatch):
    # r1 made in M, where rule 2 could unfold it; it is an entry, now with two homes
    before = _project("module Client where\n\nr1 = 1\n", "module M where\n\nk = 2\n")
    after = _project("module Client where\n\nr1 = 1\n", "module M where\n\nk = 2\n\nr1 = k\n")
    record = _refused_then_observed(monkeypatch, before, after)
    assert (record.equivalence, record.kind) == ("fail", "UnresolvedName")
    assert "entry r1 is defined in several modules" in record.error


def test_an_entry_that_shows_a_closure_is_not_proved_by_unfolding(monkeypatch):
    # f is proved by unfolding the made inc, but r1 shows f's closure
    before = _project("module Client where\n\nf y = y + 1\n\nr1 = f\n\nr2 = f 1\n")
    after = _project("module Client where\n\ninc z = z + 1\n\nf y = inc y\n\nr1 = f\n\nr2 = f 1\n")
    expected = observe_entries(before, ("r1", "r2"))
    assert expected == {"r1": "<f>", "r2": "2"}
    proof = renaming_certificate(before, after, ("r1", "r2"), expected, _replaced(before, after))
    assert (proof, proof.unfolding) == ({"r2"}, True)
    record = _checked_run(monkeypatch, before, after, ("r1", "r2"))
    assert (record.equivalence, record.evaluated) == ("pass", ["r1"])


def test_a_step_proved_by_unfolding_says_so():
    # the lifted g is made: f passes by unfolding it, and g passes as made
    before = _project("module Client where\n\nf x = g x\n  where\n    g y = y * 2\n\nr1 = f 4\n")
    origin = EvalStats()  # step 1's record counts the origin's observation, and no other
    observe_entries(before, ("r1",), stats=origin)
    _, log = run_script(before, parse_script("lift-def f g Client\n"), checked=True, entries=("r1",))
    assert [(r.equivalence, r.proof, r.evaluated, r.reductions) for r in log.records] == [
        ("pass", "unfolding", [], origin.steps)]
