"""Behavior of each catalog operation on its documented inputs. The golden
end-to-end chains live in test_acceptance; these pin the individual rewrite
shapes, each checked against the evaluator where behavior could drift."""

import pytest

from viewshift import refactorings as R
from viewshift.evaluator import observe_entries
from viewshift.lang import Project
from viewshift.names import alpha_eq_decl
from viewshift.parse import parse_decl, parse_expr, parse_module
from viewshift.render import render_decl

ENTRIES = ("r1", "r2", "r3", "r4")


def _project(*sources):
    mods = {}
    for src in sources:
        mod = parse_module(src)
        mods[mod.name] = mod
    return Project(mods)


def _decl_text(project, module, name):
    return render_decl(project.modules[module].decl(name))


@pytest.fixture
def preserved(pfun):
    base = observe_entries(pfun, ENTRIES)

    def check(project):
        assert observe_entries(project, ENTRIES) == base
        return project

    return check


def test_exhibit_function(pfun, preserved):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    p = R.exhibit_function(p, "eval", "Add", "evalAdd", "EvalMod")
    text = _decl_text(p, "EvalMod", "eval")
    assert "eval (Const i) = evalConst\n    where\n        evalConst = i" in text
    assert "evalAdd = eval e1 + eval e2" in text
    preserved(p)


def _to_step(pfun, n):
    """Forward-script prefix reaching numbered step n (helper for setups)."""
    from viewshift.corpus import FORWARD_EVAL_STEPS, load_fixture
    from viewshift.script import Script, run_script
    fwd = load_fixture("forward-script").scripts["forward"]
    count = dict(FORWARD_EVAL_STEPS)[n]
    out, log = run_script(pfun, Script("prefix", fwd.steps[:count]))
    assert log.ok
    return out


def test_generalise_const_and_add(pfun, preserved):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    p = R.exhibit_function(p, "eval", "Add", "evalAdd", "EvalMod")
    p = R.generalise(p, "eval", "Const", "evalConst", "EvalMod", 1, "x", "tupled", "OtherType")
    text = _decl_text(p, "EvalMod", "eval")
    assert "eval (Const i) = evalConst i" in text
    assert "evalConst x = x" in text
    p = R.generalise(p, "eval", "Add", "evalAdd", "EvalMod", 2, "y", "tupled", "RecType")
    p = R.generalise(p, "eval", "Add", "evalAdd", "EvalMod", 1, "x", "tupled", "RecType")
    text = _decl_text(p, "EvalMod", "eval")
    assert "eval (Add (e1, e2)) = evalAdd (eval e1) (eval e2)" in text
    assert "evalAdd x y = x + y" in text
    preserved(p)


def test_generalise_ident_step4(pfun, preserved):
    p = _to_step(pfun, 3)
    p = R.generalise_ident(p, "eval", "EvalMod", "evalConst", "c")
    p = R.generalise_ident(p, "eval", "EvalMod", "evalAdd", "a")
    text = _decl_text(p, "EvalMod", "eval")
    assert "eval a c (Const i) = c i" in text
    assert "eval a c (Add (e1, e2)) = a (eval a c e1) (eval a c e2)" in text
    assert _decl_text(p, "EvalMod", "eval_gen") == "eval_gen = evalConst"
    assert _decl_text(p, "EvalMod", "eval_gen_1") == "eval_gen_1 = evalAdd"
    assert "eval eval_gen_1 eval_gen e1" in _decl_text(p, "Client", "r2")
    preserved(p)


def test_generalise_ident_on_local(pfun, preserved):
    p = _to_step(pfun, 5)
    p = R.new_def_fun_app(p, "fold1", 3, "eval", "Client")
    p = R.generalise_ident(p, "eval", "Client", "e1", "x")
    r2 = p.modules["Client"].decl("r2")
    assert "eval e1" in render_decl(r2)
    assert "eval x = fold1 eval_gen_1 eval_gen x" in render_decl(r2)
    preserved(p)


def test_lift_to_top_step3(pfun, preserved):
    p = _to_step(pfun, 2)
    p = R.lift_to_top(p, "eval", "evalConst", "EvalMod")
    p = R.lift_to_top(p, "eval", "evalAdd", "EvalMod")
    mod = p.modules["EvalMod"]
    assert [d.name for d in mod.decls] == ["eval", "evalAdd", "evalConst"]
    assert _decl_text(p, "EvalMod", "evalConst") == "evalConst x = x"
    assert _decl_text(p, "EvalMod", "evalAdd") == "evalAdd x y = x + y"
    preserved(p)


def test_lift_captures_pattern_variables():
    p = _project(
        "module L where\n\ndata T = K Int\n\n"
        "f (K i) = g 2\n    where\n        g y = i + y\n\n"
        "entry = print (show (f (K 40)))",
    )
    before = observe_entries(p, ["entry"])
    p2 = R.lift_to_top(p, "f", "g", "L")
    assert _decl_text(p2, "L", "g") == "g i y = i + y"
    assert "f (K i) = g i 2" in _decl_text(p2, "L", "f")
    assert observe_entries(p2, ["entry"]) == before


def test_new_def_fun_app_step6(pfun, preserved):
    p = _to_step(pfun, 5)
    p = R.new_def_fun_app(p, "fold1", 3, "eval", "Client")
    r2 = render_decl(p.modules["Client"].decl("r2"))
    assert "r2 = print (show eval)" in r2
    assert "eval = fold1 eval_gen_1 eval_gen e1" in r2
    preserved(p)


def test_new_def_fun_app_first_only():
    p = _project(
        "module M where\n\nf x y z = x\n\na = print (show (f 1 2 3))\n\nb = print (show (f 4 5 6))",
    )
    p2 = R.new_def_fun_app(p, "f", 3, "g", "M")
    assert "g = f 1 2 3" in _decl_text(p2, "M", "a")
    assert "f 4 5 6" in _decl_text(p2, "M", "b")
    assert observe_entries(p2, ["a", "b"]) == {"a": "1", "b": "4"}


def test_rename_top_level_step5(pfun, preserved):
    p = _to_step(pfun, 4)
    p = R.rename_top_level(p, "eval", "EvalMod", "fold1")
    assert "fold1 eval_gen_1 eval_gen e1" in _decl_text(p, "Client", "r2")
    assert p.modules["EvalMod"].decl("fold1") is not None
    preserved(p)


def test_rename_identity(pfun):
    assert R.rename_top_level(pfun, "eval", "EvalMod", "eval") == pfun


def test_rename_qualifies_clashing_sites():
    p = _project(
        "module A where\n\ng x = x",
        "module B where\n\nimport A\n\nf = 1\n\nentry = print (show (g f))",
    )
    p2 = R.rename_top_level(p, "g", "A", "f")
    entry = _decl_text(p2, "B", "entry")
    assert "A.f B.f" in entry
    assert observe_entries(p2, ["entry"]) == {"entry": "1"}


def test_rename_renames_the_export():
    p = R.rename_top_level(_project("module M (f, g) where\nf = 1\ng = 2"), "f", "M", "h")
    assert p.modules["M"].exports == ("h", "g")


def test_move_def_exports_a_definition_another_module_reads():
    p = _project(
        "module A where\n\nf = 1",
        "module B (k) where\n\nk = 2",
        "module C where\n\nimport A\nimport B\n\nentry = print (show (f + k))",
    )
    p2 = R.move_def(p, "f", "A", "B")
    assert p2.modules["B"].exports == ("k", "f")
    assert observe_entries(p2, ["entry"]) == {"entry": "3"}


def test_move_def_step9_and_10(pfun, preserved):
    p = _to_step(pfun, 8)
    p = R.move_def(p, "evalConst", "EvalMod", "ConstMod")
    p = R.rename_top_level(p, "evalConst", "ConstMod", "eval")
    p = R.move_def(p, "evalAdd", "EvalMod", "AddMod")
    p = R.rename_top_level(p, "evalAdd", "AddMod", "eval")
    text = _decl_text(p, "Client", "eval")
    assert text == "eval x = fold1 AddMod.eval ConstMod.eval x"
    assert "Client.eval e1" in _decl_text(p, "Client", "r2")
    p = R.move_def(p, "fold1", "EvalMod", "Expr")
    assert p.modules["EvalMod"].decls == ()
    assert p.modules["Expr"].decl("fold1") is not None
    preserved(p)


def test_unfold_instance_step8(pfun, preserved):
    p = _to_step(pfun, 7)
    p = R.unfold_instance(p, "eval_gen", "eval", "Client")
    p = R.unfold_instance(p, "eval_gen_1", "eval", "Client")
    assert _decl_text(p, "Client", "eval") == "eval x = fold1 evalAdd evalConst x"
    preserved(p)


def test_unfold_imports_what_the_body_reads():
    p = _project(
        "module X (x) where\n\nx = 5",
        "module G (g) where\n\nimport X\n\ng y = X.x + y",
        "module C where\n\nimport G\n\nr1 = print (show (g 1))",
    )
    p2 = R.unfold_instance(p, "g", "r1", "C")
    assert p2.modules["C"].imports == ("G", "X")
    assert observe_entries(p2, ["r1"]) == {"r1": "6"}


def test_unfold_beta_reduces(pdata):
    base = observe_entries(pdata, ENTRIES)
    p = R.duplicate_into_comment(pdata, "eval", "Client")
    p = R.generative_fold(p, "fold1", 3, "Client")
    p = R.unfold_instance(p, "ConstMod.eval", "eval", "Client")
    text = _decl_text(p, "Client", "eval")
    assert "Const i -> i" in text
    assert observe_entries(p, ENTRIES) == base


def test_unfold_multi_equation_synthesizes_case():
    p = _project(
        "module M where\n\ndata Expr = Const Int | Add (Expr, Expr)\n\n"
        "fold1 a c (Const i) = c i\n"
        "fold1 a c (Add (e1, e2)) = a (fold1 a c e1) (fold1 a c e2)\n\n"
        "f a c x = fold1 a c x",
    )
    p2 = R.unfold_instance(p, "fold1", "f", "M")
    text = _decl_text(p2, "M", "f")
    assert "case (a, c, x) of" in text
    assert "(a, c, Const i) -> c i" in text
    assert "(a, c, Add (e1, e2)) -> a (fold1 a c e1) (fold1 a c e2)" in text


def test_unfold_where_local():
    p = _project("module M where\n\nf x = g\n    where\n        g = x + 1")
    p2 = R.unfold_instance(p, "g", "f", "M")
    eq = p2.modules["M"].decl("f").equations[0]
    assert eq.rhs == parse_expr("x + 1")
    # the now-unused local can be removed, restoring a plain equation
    p3 = R.remove_local_def(p2, "g", "f", "M")
    assert _decl_text(p3, "M", "f") == "f x = x + 1"


def test_fold_def_step7(pfun, preserved):
    p = _to_step(pfun, 6)
    p = R.fold_top_level(p, "eval", "Client")
    assert _decl_text(p, "Client", "r4") == "r4 = print (show (eval e2))"
    # no self-collapse: eval's own body is untouched
    assert _decl_text(p, "Client", "eval") == "eval x = fold1 eval_gen_1 eval_gen x"
    preserved(p)


def test_fold_unfold_restores(pfun):
    p = _to_step(pfun, 6)
    folded = R.fold_top_level(p, "eval", "Client")
    unfolded = R.unfold_instance(folded, "eval", "r4", "Client")
    assert alpha_eq_decl(
        unfolded.modules["Client"].decl("r4"), p.modules["Client"].decl("r4")
    )


def test_generative_fold_key_step(pdata):
    base = observe_entries(pdata, ENTRIES)
    p = R.duplicate_into_comment(pdata, "eval", "Client")
    p = R.generative_fold(p, "fold1", 3, "Client")
    text = _decl_text(p, "Client", "eval")
    assert "case x of" in text
    assert "Add (e1, e2) -> AddMod.eval (Client.eval e1) (Client.eval e2)" in text
    assert observe_entries(p, ENTRIES) == base


def test_simplify_case_pattern_appendix_example():
    p = _project(
        "module CM where\n\ng x = x",
        "module AM where\n\nh x y = x + y",
        "module M where\n\nimport CM\nimport AM\n\n"
        "data Expr = Const Int | Add (Expr, Expr)\n\n"
        "f x = case (AM.h, CM.g, x) of\n"
        "    (a, c, Const i) -> c i\n"
        "    (a, c, Add (e1, e2)) -> a (f e1) (f e2)\n\n"
        "entry = print (show (f (Add (Const 1, Const 2))))",
    )
    before = observe_entries(p, ["entry"])
    p = R.simplify_case_pattern(p, "f", "M")
    text = _decl_text(p, "M", "f")
    assert text.startswith("f x = let a = h in case (g, x) of")
    p = R.simplify_case_pattern(p, "f", "M")
    text = _decl_text(p, "M", "f")
    assert text.startswith("f x = let a = h in let c = g in case x of")
    assert observe_entries(p, ["entry"]) == before


def test_case_to_eq(pfun):
    p = _project(
        "module M where\n\ndata T = K Int | L Int\n\n"
        "f x = case x of\n    K i -> i\n    L j -> j + 1\n\n"
        "entry = print (show (f (L 3)))",
    )
    before = observe_entries(p, ["entry"])
    p2 = R.case_to_eq(p, "f", "M", 1)
    d = p2.modules["M"].decl("f")
    assert len(d.equations) == 2
    assert _decl_text(p2, "M", "f") == "f (K i) = i\nf (L j) = j + 1"
    assert observe_entries(p2, ["entry"]) == before


def test_case_to_eq2():
    p = _project(
        "module M where\n\ndata T = K Int | L Int\n\n"
        "f x y = case (x, y) of\n    (K i, K j) -> i + j\n    (p, q) -> 0\n\n"
        "entry = print (show (f (K 1) (K 2)))",
    )
    p2 = R.case_to_eq(p, "f", "M", 2)
    assert _decl_text(p2, "M", "f") == "f (K i) (K j) = i + j\nf p q = 0"
    assert observe_entries(p2, ["entry"]) == {"entry": "3"}


def test_duplicate_into_comment_parses_alpha_equal(pdata):
    p = R.duplicate_into_comment(pdata, "eval", "Client")
    d = p.modules["Client"].decl("eval")
    copy = parse_decl(d.comment.text())
    assert alpha_eq_decl(copy, d)


def test_comment_roundtrip(pdata):
    p = R.duplicate_into_comment(pdata, "eval", "Client")
    p = R.rm_comment_before(p, "eval", "Client")
    assert p == pdata


def test_remove_def_and_exports():
    p = _project("module M (f, g) where\nf = 1\ng = 2")
    p2 = R.remove_def(p, "f", "M")
    assert p2.modules["M"].decl("f") is None
    assert p2.modules["M"].exports == ("g",)


def test_clean_imports(pfun):
    assert R.clean_imports(pfun, "Client") == pfun
    p = _project(
        "module A where\nf = 1",
        "module M where\nimport A\ng = 2",
    )
    p2 = R.clean_imports(p, "M")
    assert p2.modules["M"].imports == ()


def test_rm_from_exports():
    p = _project("module M (f, g) where\nf = 1\ng = 2")
    p2 = R.rm_from_exports(p, "f", "M")
    assert p2.modules["M"].exports == ("g",)


def test_unify_alpha(pfun):
    p = _project(
        "module M where\n\nfold1 a b = a + b\n\nfold2 x y = x + y\n\n"
        "entry = print (show (fold2 1 2))",
    )
    p2 = R.unify_alpha_equivalent(p, "fold1", "fold2", "M")
    assert p2.modules["M"].decl("fold2") is None
    assert "fold1 1 2" in _decl_text(p2, "M", "entry")
    assert observe_entries(p2, ["entry"]) == {"entry": "3"}


def test_move_def_creates_module_and_imports():
    p = _project(
        "module E where\n\ndata T = K Int",
        "module A where\n\nimport E\n\nf (K i) = i\n\n"
        "entry = print (show (f (K 7)))",
    )
    p2 = R.move_def(p, "f", "A", "B")
    assert "B" in p2.modules
    assert p2.modules["B"].imports == ("E",)  # for the constructor K
    assert "B" in p2.modules["A"].imports
    assert observe_entries(p2, ["entry"]) == {"entry": "7"}


def test_move_def_imports_constructor_module_of_case_pattern():
    # f names E's constructor only in a case pattern; B must import E
    p = _project(
        "module E where\n\ndata T = K Int",
        "module A where\n\nimport E\n\nf x = case x of K i -> i",
        "module B where\n\nb = 1",
        "module C where\n\nimport A\n\nimport E\n\n"
        "entry = print (show (f (K 7)))",
    )
    p2 = R.move_def(p, "f", "A", "B")
    assert p2.modules["B"].imports == ("E",)
    assert "B" in p2.modules["C"].imports
    assert observe_entries(p2, ["entry"]) == {"entry": "7"}


def test_move_def_refuses_cycle():
    # caller and data type live in the source module: moving f out would
    # force A and B to import each other
    p = _project(
        "module A where\n\ndata T = K Int\n\nf (K i) = i\n\n"
        "entry = print (show (f (K 7)))",
    )
    with pytest.raises(R.RefactorError) as exc:
        R.move_def(p, "f", "A", "B")
    assert exc.value.kind == "PreconditionFailed"


def test_inverse_move(pfun):
    moved = R.move_def(pfun, "eval", "EvalMod", "ToStringMod")
    back = R.move_def(moved, "eval", "ToStringMod", "EvalMod")
    back = R.clean_imports(back, "Client")
    back = R.clean_imports(back, "ToStringMod")
    from viewshift.names import alpha_eq_project
    assert alpha_eq_project(back, pfun)


def test_exhibit_then_unfold_then_remove_restores(pfun):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    p = R.unfold_instance(p, "evalConst", "eval", "EvalMod")
    p = R.remove_local_def(p, "evalConst", "eval", "EvalMod")
    assert alpha_eq_decl(
        p.modules["EvalMod"].decl("eval"), pfun.modules["EvalMod"].decl("eval")
    )


# Each operation below once seeded a where-local or pattern-variable scope
# with the wrong bound names, skipped a recursive local's own body, or let a
# binder capture an argument it added, and changed the program's behaviour
# silently.
_SHADOWED_K = (
    "module M where\n\ndata T = A Int | B\n\nk = 5\n\n"
    "f (A k) = k\nf B = k\n\nr = f (A 1) + f B"
)
_SHADOWED_G = (
    "module M where\n\ndata T = A Int | B\n\n"
    "f (A n) = g + h 10\n    where\n        g = n + 1\n        h g = g * 2\nf B = 0\n\n"
    "r = f (A 1)"
)
_SHADOWED_G_FREE_K = (
    "module M where\n\ndata T = A Int | B\n\nk = 5\n\n"
    "f (A n) = g + h 10\n    where\n        g = k + n\n        h g = g * 2\nf B = 0\n\n"
    "r = f (A 1)"
)
_CASE_BOUND_G = (
    "module M where\n\ndata T = A Int | B\n\ninc y = y + 1\n\n"
    "f (A n) = case (inc, n) of\n    (g, k) -> g k\n"
    "    where\n        g y = y * 10\nf B = 0\n\n"
    "r = f (A 1)"
)
_RECURSIVE_G = (
    "module M where\n\ndata T = A Int | B\n\n"
    "f (A n) = g 3\n    where\n        g y = case y of\n"
    "            0 -> n\n            k -> g 0\nf B = 0\n\n"
    "r = f (A 7)"
)
_CASE_REBINDS_N = (
    "module M where\n\ndata T = A Int | B\n\n"
    "f (A n) = case 100 of\n    n -> g\n    where\n        g = n + 1\nf B = 0\n\n"
    "r = f (A 7)"
)
_CALLER_REBINDS_K = "module M where\n\nk = 5\n\nf y = y + k\n\ng k = f 1\n\nr = g 100"
_CALLER_REBINDS_F = "module M where\n\nk = 5\n\nf y = y + k\n\ng n = f n + (let f = 2 in f)\n\nr = g 100"


@pytest.mark.parametrize("source, op", [
    pytest.param(_SHADOWED_K, lambda p: R.generalise_ident(p, "f", "M", "k", "x"),
                 id="generalise-ident-pattern-bound"),
    pytest.param(_SHADOWED_G, lambda p: R.lift_to_top(p, "f", "g", "M"),
                 id="lift-def-param-shadows-local"),
    pytest.param(_SHADOWED_G, lambda p: R.generalise(
        p, "f", "A", "g", "M", 1, "x", "curried", "OtherType"),
                 id="generalise-param-shadows-local"),
    pytest.param(_SHADOWED_G_FREE_K, lambda p: R.generalise_ident(p, "g", "M", "k", "x"),
                 id="generalise-ident-local-param-shadows-local"),
    pytest.param(_CASE_BOUND_G, lambda p: R.unfold_instance(p, "g", "f", "M"),
                 id="unfold-local-case-binder-shadows-local"),
    pytest.param(_RECURSIVE_G, lambda p: R.lift_to_top(p, "f", "g", "M"),
                 id="lift-def-recursive-local"),
    pytest.param(_RECURSIVE_G, lambda p: R.generalise_ident(p, "g", "M", "n", "x"),
                 id="generalise-ident-recursive-local"),
    pytest.param(_RECURSIVE_G, lambda p: R.generalise(
        p, "f", "A", "g", "M", 1, "x", "curried", "OtherType"),
                 id="generalise-recursive-local"),
    pytest.param(_CASE_REBINDS_N, lambda p: R.lift_to_top(p, "f", "g", "M"),
                 id="lift-def-argument-captured-at-use"),
    pytest.param(_CALLER_REBINDS_K, lambda p: R.generalise_ident(p, "f", "M", "k", "x"),
                 id="generalise-ident-argument-captured-at-call"),
    pytest.param(_CALLER_REBINDS_F, lambda p: R.generalise_ident(p, "f", "M", "k", "x"),
                 id="generalise-ident-caller-rebinds-the-function"),
])
def test_binder_scoping_keeps_behaviour(source, op):
    p = _project(source)
    before = observe_entries(p, ["r"])
    try:
        out = op(p)
    except R.RefactorError:
        return
    assert observe_entries(out, ["r"]) == before
