"""Failing-precondition suite: every operation refuses bad input with the
documented error kind and leaves the project untouched (compared after
canonical rendering)."""

import pytest

from viewshift import refactorings as R
from viewshift.evaluator import observe_entries
from viewshift.lang import Project
from viewshift.parse import parse_module
from viewshift.render import render_module, render_project
from viewshift.resolver import resolve_project


def _project(*sources):
    mods = {}
    for src in sources:
        mod = parse_module(src)
        mods[mod.name] = mod
    return Project(mods)


def expect(project, kind, fn, *args):
    before = render_project(project)
    with pytest.raises(R.RefactorError) as exc:
        fn(project, *args)
    assert exc.value.kind == kind, exc.value
    assert render_project(project) == before  # all-or-nothing
    return exc.value


# --- exhibit-function ---

def test_exhibit_no_such_constructor_equation(pfun):
    expect(pfun, "NotFound", R.exhibit_function, "eval", "Mult", "x", "EvalMod")


def test_exhibit_no_such_function(pfun):
    expect(pfun, "NotFound", R.exhibit_function, "nope", "Const", "x", "EvalMod")


def test_exhibit_name_clash(pfun):
    # the pattern variable of the equation and the enclosing definition both clash
    expect(pfun, "NameClash", R.exhibit_function, "eval", "Const", "i", "EvalMod")
    expect(pfun, "NameClash", R.exhibit_function, "eval", "Const", "eval", "EvalMod")


# --- new-def-fun-app ---

def test_new_def_zero_args(pfun):
    expect(pfun, "NotApplicable", R.new_def_fun_app, "eval", 0, "g", "Client")


def test_new_def_no_application(pfun):
    expect(pfun, "NotFound", R.new_def_fun_app, "eval", 99, "g", "Client")


def test_new_def_name_clash(pfun):
    expect(pfun, "NameClash", R.new_def_fun_app, "eval", 1, "e2", "Client")


@pytest.mark.parametrize("f_source", [
    "f x = case x of y -> g y",
    "f x = k x\n  where\n    k y = g y",
], ids=["case-binder", "local-param"])
def test_new_def_application_under_binder(f_source):
    # y is bound between the equation and the application; naming `g y` as a
    # where-local of f would read the top-level y instead (r: 2 -> 101)
    p = _project(f"module M where\ny = 100\ng a = a + 1\n{f_source}\nr = f 1")
    expect(p, "NotApplicable", R.new_def_fun_app, "g", 1, "h", "M")


def test_new_def_name_bound_at_application():
    # a case binder named fp would capture the new local's name
    p = _project("module M where\ng a = a + 1\nf x = case x of h -> g 1\nr = f 1")
    expect(p, "NameClash", R.new_def_fun_app, "g", 1, "h", "M")


# --- generalise ---

def test_generalise_rectype_target_absent(pfun):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    # the body of evalConst is `i`, not `eval i`
    expect(p, "NotApplicable", R.generalise,
           "eval", "Const", "evalConst", "EvalMod", 1, "x", "tupled", "RecType")


def test_generalise_no_local(pfun):
    expect(pfun, "NotFound", R.generalise,
           "eval", "Const", "nolocal", "EvalMod", 1, "x", "tupled", "OtherType")


def test_generalise_bad_index(pfun):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    expect(p, "NotFound", R.generalise,
           "eval", "Const", "evalConst", "EvalMod", 5, "x", "tupled", "OtherType")


def test_generalise_param_clash(pfun):
    p = R.exhibit_function(pfun, "eval", "Add", "evalAdd", "EvalMod")
    expect(p, "NameClash", R.generalise,
           "eval", "Add", "evalAdd", "EvalMod", 1, "e2", "tupled", "RecType")


# --- generalise-ident ---

def test_generalise_ident_not_free(pfun):
    expect(pfun, "NotFound", R.generalise_ident, "eval", "EvalMod", "toString", "x")


def test_generalise_ident_no_definition(pfun):
    expect(pfun, "NotFound", R.generalise_ident, "ghost", "EvalMod", "eval", "x")


def test_generalise_ident_param_clash():
    p = _project("module M where\n\ng = 1\n\nf x = g + x")
    expect(p, "NameClash", R.generalise_ident, "f", "M", "g", "x")


# --- lift-def ---

def test_lift_no_local(pfun):
    expect(pfun, "NotFound", R.lift_to_top, "eval", "ghost", "EvalMod")


def test_lift_name_clash():
    # the local's name is already a top-level binding of the module
    p = _project("module M where\n\ng = 1\n\nf x = g\n    where\n        g = x")
    expect(p, "NameClash", R.lift_to_top, "f", "g", "M")


def test_lift_sibling_reference():
    p = _project(
        "module M where\n\nf x = a\n    where\n        a = b + x\n        b = 1"
    )
    expect(p, "NotApplicable", R.lift_to_top, "f", "a", "M")


# --- where-local lookup ---

# g is a where-local of both equations of f, and k is free in both bodies
TWO_LOCALS_G = (
    "module M where\n\nk = 5\n\n"
    "f 0 = 0\n    where\n        g = k\n"
    "f n = g + n\n    where\n        g = k + 1\n\n"
    "r = f 1"
)


@pytest.mark.parametrize("fn, args", [
    (R.unfold_instance, ("g", "f", "M")),
    (R.remove_local_def, ("g", "f", "M")),
    (R.lift_to_top, ("f", "g", "M")),
    (R.generalise_ident, ("g", "M", "k", "y")),
], ids=["unfold-instance", "remove-local-def", "lift-def", "generalise-ident"])
def test_where_local_in_two_equations(fn, args):
    # no operation picks one of two same-named where-locals for the caller
    err = expect(_project(TWO_LOCALS_G), "NotFound", fn, *args)
    assert "more than one local definition" in err.message


# --- rename-top-level ---

def test_rename_clash_in_module():
    # renaming onto a name the module's own scope already binds
    p = _project("module M where\nf = 1\ng = 2")
    expect(p, "NameClash", R.rename_top_level, "f", "M", "g")


def test_rename_clash_with_import(pfun):
    # Expr's constructors are visible in EvalMod: renaming onto one clashes
    expect(pfun, "NameClash", R.rename_top_level, "eval", "EvalMod", "Const")


def test_rename_missing(pfun):
    expect(pfun, "NotFound", R.rename_top_level, "ghost", "EvalMod", "f")


# --- move-def ---

def test_move_target_already_defines(pfun):
    p = _project(
        "module A where\nf = 1",
        "module B where\nf = 2",
    )
    expect(p, "NameClash", R.move_def, "f", "A", "B")


def test_move_missing(pfun):
    expect(pfun, "NotFound", R.move_def, "ghost", "EvalMod", "Expr")


def test_move_import_cycle():
    p = _project(
        "module A where\n\ndata T = K Int\n\nf (K i) = i\n\nuse = f (K 1)",
    )
    expect(p, "PreconditionFailed", R.move_def, "f", "A", "B")


def test_move_beside_an_unrelated_import_cycle():
    # A and B import each other, which resolution accepts; moving C's f to
    # a new D adds only C -> D, and a cycle the move makes passes through D
    p = _project(
        "module A where\n\nimport B\n\na = 1",
        "module B where\n\nimport A\n\nb = a",
        "module C where\n\nf = 2\n\ng = f",
    )
    resolve_project(p)
    out = R.move_def(p, "f", "C", "D")
    assert out.modules["C"].imports == ("D",)
    assert render_module(out.modules["D"]) == "module D where\n\nf = 2\n"
    assert observe_entries(out, ["g"]) == {"g": "2"}


def test_move_along_long_import_chain():
    # the import-cycle check walks a 1,200-module chain without recursing
    n = 1200
    sources = [f"module M{i} where\n\nimport M{i + 1}\n\nv{i} = v{i + 1}" for i in range(n - 1)]
    p = _project(*sources, f"module M{n - 1} where\n\nv{n - 1} = 1")
    out = R.move_def(p, "v0", "M0", "Top")
    assert out.modules["Top"].imports == ("M1",)
    assert out.modules["M0"].decls == ()


def test_move_does_not_rebind_the_moved_body():
    # f reads M's private g; a bare g in P would read P's own g, and r1
    # would go from 2 to 3
    p = _project(
        "module M (f) where\n\ng = 1\n\nf = g + 1",
        "module P where\n\ng = 2",
        "module Client where\n\nimport M\n\nr1 = f",
    )
    modules = dict(p.modules)
    err = expect(p, "PreconditionFailed", R.move_def, "f", "M", "P")
    assert err.message == "M does not export g"
    assert p.modules.keys() == modules.keys()
    assert all(p.modules[name] is mod for name, mod in modules.items())


# --- unfold-instance ---

def test_unfold_no_occurrence(pfun):
    expect(pfun, "NotFound", R.unfold_instance, "toString", "eval", "EvalMod")


def test_unfold_unknown_definition(pfun):
    expect(pfun, "NotFound", R.unfold_instance, "ghost", "eval", "EvalMod")


def test_unfold_partial_application():
    p = _project("module M where\n\ng x y = x + y\n\nf = h g\n\nh k = k 1 2")
    expect(p, "NotApplicable", R.unfold_instance, "g", "f", "M")


# --- fold-def ---

def test_fold_no_instance(pfun):
    p = _project("module M where\n\nf x = x + 1\n\ng = 5")
    expect(p, "NotApplicable", R.fold_top_level, "f", "M")


def test_fold_multi_equation(pfun):
    expect(pfun, "NotApplicable", R.fold_top_level, "eval", "EvalMod")


def test_fold_parameter_captured_at_a_later_occurrence():
    # x first matches the top-level y, but its second occurrence sits under
    # a let that rebinds y: folding r into f y would take r from 11 to 20
    p = _project(
        "module M where\n\ny = 10\n\nf x = x + (let z = 1 in x)\n\n"
        "r = y + (let y = 1 in y)"
    )
    expect(p, "NotApplicable", R.fold_top_level, "f", "M")


# --- generative-fold ---

def test_generative_fold_missing_comment(pdata):
    expect(pdata, "NotFound", R.generative_fold, "fold1", 3, "Client")


def test_generative_fold_nothing_foldable(pdata):
    p = R.duplicate_into_comment(pdata, "e1", "Client")
    # e1's comment shares no instance with anything applying fold1
    expect(p, "NotFound", R.generative_fold, "fold1", 9, "Client")


def test_generative_fold_unfoldable_comment():
    p = _project(
        "module M where\n\nk x y = x\n\n-- unrelated = 1\nf x = k x 2\n\ng = 3"
    )
    # the comment parses but its body (a bare literal) has no instance after
    # the unfold, so nothing can be folded back
    expect(p, "NotApplicable", R.generative_fold, "k", 2, "M")


# --- remove-def / remove-local-def ---

def test_remove_still_used(pfun):
    err = expect(pfun, "StillUsed", R.remove_def, "eval", "EvalMod")
    assert "Client" in str(err)


def test_remove_missing(pfun):
    expect(pfun, "NotFound", R.remove_def, "ghost", "EvalMod")


def test_remove_local_still_used(pfun):
    p = R.exhibit_function(pfun, "eval", "Const", "evalConst", "EvalMod")
    expect(p, "StillUsed", R.remove_local_def, "evalConst", "eval", "EvalMod")


def test_remove_local_missing(pfun):
    expect(pfun, "NotFound", R.remove_local_def, "ghost", "eval", "EvalMod")


# --- clean-imports / rm-from-exports ---

def test_clean_imports_missing_module(pfun):
    expect(pfun, "NotFound", R.clean_imports, "Ghost")


def test_rm_from_exports_still_used():
    p = _project(
        "module A (f, g) where\nf = 1\ng = 2",
        "module B where\nimport A\nuse = f",
    )
    expect(p, "StillUsed", R.rm_from_exports, "f", "A")


def test_rm_from_exports_not_exported():
    p = _project("module A (f) where\nf = 1\ng = 2")
    expect(p, "NotFound", R.rm_from_exports, "g", "A")


# --- simplify-case-pattern ---

def test_simplify_no_common_position():
    p = _project(
        "module M where\n\ndata T = K Int\n\n"
        "f x y = case (x, y) of\n    (a, K i) -> i\n    (b, p) -> 0"
    )
    expect(p, "NotApplicable", R.simplify_case_pattern, "f", "M")


def test_simplify_not_a_case(pfun):
    p = _project("module M where\n\nf x = x + 1")
    expect(p, "NotApplicable", R.simplify_case_pattern, "f", "M")


# --- case-to-eq ---

def test_case_to_eq_scrutinee_not_parameter():
    p = _project(
        "module M where\n\ndata T = K Int\n\n"
        "f x = case x + 1 of\n    y -> y"
    )
    expect(p, "NotApplicable", R.case_to_eq, "f", "M", 1)


def test_case_to_eq_locals_present():
    p = _project(
        "module M where\n\ndata T = K Int\n\n"
        "f x = case x of\n    K i -> g i\n    where\n        g j = j"
    )
    expect(p, "NotApplicable", R.case_to_eq, "f", "M", 1)


def test_case_to_eq_body_leaks_parameter():
    p = _project(
        "module M where\n\ndata T = K Int\n\n"
        "f x = case x of\n    K i -> g x\n\ng y = 1"
    )
    expect(p, "NotApplicable", R.case_to_eq, "f", "M", 1)


# --- comments ---

def test_rm_comment_before_missing(pfun):
    expect(pfun, "NotFound", R.rm_comment_before, "eval", "EvalMod")


def test_duplicate_into_comment_missing(pfun):
    expect(pfun, "NotFound", R.duplicate_into_comment, "ghost", "EvalMod")


# --- unify-alpha ---

def test_unify_same_name(pfun):
    expect(pfun, "NotFound", R.unify_alpha_equivalent, "eval", "eval", "EvalMod")


def test_unify_not_alpha_equivalent():
    p = _project("module M where\nf x = x\ng x = x + 1")
    expect(p, "PreconditionFailed", R.unify_alpha_equivalent, "f", "g", "M")


def test_unify_missing(pfun):
    expect(pfun, "NotFound", R.unify_alpha_equivalent, "eval", "ghost", "EvalMod")


# --- preconditions that several operations share ---

SHARED = (
    "module M where\n\ndata T = K Int\n\n"
    "two (K i) = i\ntwo y = 0\n\n"
    "loc x = case x of\n    K i -> g i\n    where\n        g j = j\n\n"
    "tup (a, b) = case a of\n    K i -> b\n\n"
    "bare x = x + 1\n\n"
    "inlet x = let u = 1 in case x of\n    K i -> i + u\n\n"
    "lifted x = h\n    where\n        h = bare x\n\n"
    "wrap z = w\n    where\n        w = bare z\n\n"
    "h = 2\n\n"
    "k x y = x\n\n"
    "-- c 0 = 1\nc z = k z 2\n\n"
    "use = loc (K 1) + bare 2"
)


@pytest.mark.parametrize("kind, message, fn, args", [
    ("NotApplicable", "two must have a single equation", R.fold_top_level, ("two", "M")),
    ("NotApplicable", "two must have a single equation", R.simplify_case_pattern, ("two", "M")),
    ("NotApplicable", "two must have a single equation", R.case_to_eq, ("two", "M", 1)),
    ("NotApplicable", "loc has where-locals", R.fold_top_level, ("loc", "M")),
    ("NotApplicable", "loc has where-locals", R.case_to_eq, ("loc", "M", 1)),
    ("NotApplicable", "loc has where-locals", R.unfold_instance, ("loc", "use", "M")),
    ("NotApplicable", "tup's parameters must be plain variables", R.fold_top_level, ("tup", "M")),
    ("NotApplicable", "tup's parameters must be plain variables", R.case_to_eq, ("tup", "M", 1)),
    ("NotApplicable", "the body of bare is not a case expression", R.simplify_case_pattern, ("bare", "M")),
    ("NotApplicable", "the body of bare is not a case expression", R.case_to_eq, ("bare", "M", 1)),
    # simplify-case-pattern looks through lets; case-to-eq would drop them
    ("NotApplicable", "the body of inlet is not a case expression", R.case_to_eq, ("inlet", "M", 1)),
    ("NameClash", "bare is already in scope in M", R.exhibit_function, ("two", "K", "bare", "M")),
    ("NameClash", "i is already in scope in M", R.exhibit_function, ("two", "K", "i", "M")),
    ("NameClash", "use is already in scope in M", R.new_def_fun_app, ("bare", 1, "use", "M")),
    ("NameClash", "bare is already in scope in M", R.rename_top_level, ("two", "M", "bare")),
    ("NameClash", "h is already in scope in M", R.lift_to_top, ("lifted", "h", "M")),
    ("NotApplicable", "the commented definition's parameters must be plain variables", R.generative_fold, ("k", 2, "M")),
    ("PreconditionFailed", "unknown generalise mode Bogus", R.generalise, ("loc", "K", "g", "M", 1, "y", "curried", "Bogus")),
    ("PreconditionFailed", "unknown curry flag bogus", R.generalise, ("loc", "K", "g", "M", 1, "y", "bogus", "OtherType")),
    ("NotApplicable", "an application has at least one argument", R.generative_fold, ("k", 0, "M")),
    ("NotFound", "y is not free in the body of g", R.generalise_ident, ("g", "M", "y", "z")),
    ("NameClash", "z is already used inside wrap", R.generalise_ident, ("w", "M", "bare", "z")),
    ("NotApplicable", "T in M is a data declaration", R.generalise_ident, ("T", "M", "y", "z")),
], ids=[
    "single-fold", "single-simplify", "single-case-to-eq", "locals-fold", "locals-case-to-eq",
    "locals-unfold", "plain-fold", "plain-case-to-eq", "case-simplify", "case-case-to-eq",
    "let-case-to-eq", "bound-exhibit", "bound-exhibit-pattern", "bound-new-def", "bound-rename",
    "bound-lift", "plain-commented", "generalise-mode", "generalise-curry-flag", "generative-fold-no-arguments",
    "local-ident-not-free", "local-ident-clash", "ident-of-data",
])
def test_shared_precondition(kind, message, fn, args):
    assert expect(_project(SHARED), kind, fn, *args).message == message


# --- names the output could not parse back ---

@pytest.mark.parametrize("fn,args", [
    (R.rename_top_level, ("eval", "EvalMod", "Konst")),
    (R.rename_top_level, ("eval", "EvalMod", "show")),
    (R.exhibit_function, ("eval", "Const", "of", "EvalMod")),
    (R.new_def_fun_app, ("eval", 1, "x y", "Client")),
    (R.generalise_ident, ("eval", "EvalMod", "eval", "X")),
    (R.move_def, ("eval", "EvalMod", "stash")),
], ids=["con-name", "builtin", "keyword", "two-words", "generalise-con", "lower-module"])
def test_new_name_that_would_not_parse(pfun, fn, args):
    expect(pfun, "NotApplicable", fn, *args)


def test_error_kind_count():
    # the suite above exercises every RefactorError kind
    kinds = {"NameClash", "NotFound", "NotApplicable", "StillUsed", "PreconditionFailed"}
    assert kinds == set(R.KINDS)
