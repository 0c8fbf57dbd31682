import pytest

from viewshift.names import (
    alpha_eq_decl, alpha_eq_expr, alpha_eq_project, free_vars, fresh_name,
    substitute, substitute_many,
)
from viewshift.parse import parse_decl, parse_expr, parse_module
from viewshift.lang import Let, Project, Var
from viewshift.resolver import build_symbol_table, decl_reads
from viewshift.rewrite import InstanceMatcher


def test_free_vars_application():
    assert free_vars(parse_expr("eval e1 + eval e2")) == {"eval", "e1", "e2"}


def test_free_vars_case_binds_pattern():
    assert free_vars(parse_expr("case x of\n    Const i -> i")) == {"x"}


def test_free_vars_fold1_body_closed():
    d = parse_decl(
        "fold1 a c (Const i) = c i\n"
        "fold1 a c (Add (e1, e2)) = a (fold1 a c e1) (fold1 a c e2)"
    )
    # only the recursive calls read a name from outside
    assert {c[2] for c in decl_reads(d).checks if c[:2] == ("var", None)} == {"fold1"}


def test_free_vars_let_recursive():
    e = parse_expr("let y = x in y")
    assert free_vars(e) == {"x"}
    assert free_vars(parse_expr("let y = y in y")) == set()


def test_qualified_vars_not_free_by_default():
    e = parse_expr("ConstMod.eval i")
    assert free_vars(e) == {"i"}


def test_substitute_simple():
    e = substitute(parse_expr("x + y"), "x", parse_expr("1"))
    assert e == parse_expr("1 + y")


def test_substitute_capture_avoiding():
    e = substitute(parse_expr("let y = x in y"), "x", parse_expr("y"))
    # The binder must be freshened: let y' = y in y'
    assert isinstance(e, Let)
    binding = e.bindings[0]
    assert binding.name != "y"
    assert binding.rhs == Var("y")
    assert e.body == Var(binding.name)


def test_substitute_shadowed_occurrence_untouched():
    e = substitute(parse_expr("x + (let x = 1 in x)"), "x", parse_expr("2"))
    assert e == parse_expr("2 + (let x = 1 in x)")


def test_substitute_case_binder_freshened():
    e = substitute(parse_expr("case z of\n    K i -> x + i"), "x", parse_expr("i"))
    # the pattern's i must be renamed so the substituted i stays free
    branch = e.branches[0]
    bound = branch.pattern.args[0].name
    assert bound != "i"
    assert free_vars(e) == {"z", "i"}


def test_substitute_renames_let_binder_once():
    # y is read in both right-hand sides and the body; one fresh name serves
    # all three, and it avoids y_gen, which only the body reads
    e = parse_expr("let y = x + y; z = y + x in y + z + y_gen")
    out = substitute(e, "x", parse_expr("y"))
    assert alpha_eq_expr(out, parse_expr("let a = y + a; z = a + y in a + z + y_gen"))
    assert free_vars(out) == {"y", "y_gen"}


def test_substitute_renames_binder_in_each_case_branch():
    e = parse_expr("case p of\n    K i -> x + i\n    J (i, j) -> i + j + x + i_gen")
    out = substitute(e, "x", parse_expr("i"))
    expected = "case p of\n    K a -> i + a\n    J (b, j) -> b + j + i + i_gen"
    assert alpha_eq_expr(out, parse_expr(expected))


def test_substitute_keeps_binder_where_nothing_is_substituted():
    # the second branch binds x itself, so nothing is substituted under its i
    e = parse_expr("case p of\n    K i -> x + i\n    J (x, i) -> x + i")
    out = substitute_many(e, {"x": parse_expr("i")})
    assert alpha_eq_expr(out, parse_expr("case p of\n    K a -> i + a\n    J (x, i) -> x + i"))
    assert out.branches[1] == e.branches[1]


def test_substitute_keeps_binder_where_no_mapped_name_is_free():
    # z is free in the replacement, but x does not occur under J z
    out = substitute(parse_expr("x + (case q of\n    J z -> 1)"), "x", parse_expr("z"))
    expected = parse_expr("z + (case q of\n    J z -> 1)")
    assert alpha_eq_expr(out, expected) and out == expected


def test_substitute_keeps_inner_binder_of_a_renamed_branch():
    # y is renamed under K y, where x occurs; under J z only the renamed y
    # is substituted, and its fresh name is not z
    e = parse_expr("case p of\n    K y -> x + y + (case q of\n        J z -> y)")
    out = substitute(e, "x", parse_expr("y + z"))
    expected = parse_expr("case p of\n    K a -> y + z + a + (case q of\n        J z -> a)")
    assert alpha_eq_expr(out, expected)
    assert out.branches[0].body.rhs.branches[0].pattern == expected.branches[0].body.rhs.branches[0].pattern


def test_alpha_eq_fold1_fold2():
    fold1 = parse_decl(
        "fold1 a c (Const i) = c i\n"
        "fold1 a c (Add (e1, e2)) = a (fold1 a c e1) (fold1 a c e2)"
    )
    fold2 = parse_decl(
        "fold2 a c (Const i) = c i\n"
        "fold2 a c (Add (e1, e2)) = a (fold2 a c e1) (fold2 a c e2)"
    )
    assert alpha_eq_decl(fold1, fold2)


def test_alpha_eq_simple():
    assert alpha_eq_decl(parse_decl("f x = x"), parse_decl("f y = y"))
    assert not alpha_eq_decl(parse_decl("f x = x"), parse_decl("f x = x + 0"))


def test_alpha_eq_respects_free_names():
    assert not alpha_eq_decl(parse_decl("f x = g x"), parse_decl("f x = h x"))


def test_alpha_eq_where_locals():
    a = parse_decl("f x = g\n    where\n        g = x")
    b = parse_decl("f y = h\n    where\n        h = y")
    assert alpha_eq_decl(a, b)


# Nested case/let binders that rebind, and qualified names next to bound ones.
SHADOWING_PAIRS = [
    ("case-in-case", "case p of\n    K x -> case x of\n        K x -> x",
     "case p of\n    K y -> case y of\n        K z -> z", True),
    ("case-in-case-outer", "case p of\n    K x -> case x of\n        K x -> x",
     "case p of\n    K y -> case y of\n        K z -> y", False),
    ("pattern-order", "case p of\n    P (x, y) -> x", "case p of\n    P (y, x) -> y", True),
    ("pattern-order-swapped", "case p of\n    P (x, y) -> x", "case p of\n    P (y, x) -> x", False),
    ("bound-against-free", "case p of\n    K x -> x", "case p of\n    K y -> x", False),
    ("free-against-bound", "x", "let x = 1 in x", False),
    ("let-in-let", "let x = 1 in let x = x in x", "let a = 1 in let b = b in b", True),
    ("let-in-let-outer", "let x = 1 in let x = x in x", "let a = 1 in let b = a in b", False),
    ("let-rebinds-last", "let a = 1 in let a = 2 in a", "let a = 1 in let b = 2 in a", False),
    ("case-in-let", "let x = 1 in case x of\n    K x -> x", "let y = 1 in case y of\n    K z -> z", True),
    ("case-in-let-outer", "let x = 1 in case x of\n    K x -> x", "let y = 1 in case y of\n    K z -> y", False),
    ("let-in-case", "case p of\n    K x -> let x = x in x", "case p of\n    K y -> let z = z in z", True),
    ("qualified-under-let", "let g = 1 in M.g", "let h = 1 in M.g", True),
    ("qualified-against-bound", "let g = 1 in M.g", "let g = 1 in g", False),
    ("qualified-beside-bound", "let g = 1 in g + M.g", "let h = 1 in h + M.g", True),
    ("qualified-beside-case-binder", "case p of\n    K g -> M.g + g", "case p of\n    K x -> M.g + x", True),
    ("qualified-swapped-with-binder", "case p of\n    K g -> M.g + g", "case p of\n    K x -> x + M.g", False),
]


@pytest.mark.parametrize(
    "a, b, same", [pair[1:] for pair in SHADOWING_PAIRS], ids=[pair[0] for pair in SHADOWING_PAIRS]
)
def test_shadowing_pairs(a, b, same):
    ea, eb = parse_expr(a), parse_expr(b)
    assert alpha_eq_expr(ea, eb) == same
    # A template with no parameters matches exactly its alpha-equivalent
    # instances when every free name resolves.
    mod = parse_module("module M where\n\ndata T = K T | P (T, T)\n\ng = 1\n\np = 2\n\nx = 3\n")
    matcher = InstanceMatcher(build_symbol_table(Project({"M": mod})), (), "M")
    assert matcher.match(ea, eb, "M", frozenset(), {}) == same


def test_alpha_eq_project_ignores_order_and_empty_modules(pfun):
    from viewshift.lang import Project
    scrambled = {}
    for name, mod in pfun.modules.items():
        from viewshift.lang import replace
        scrambled[name] = replace(mod, decls=tuple(reversed(mod.decls)))
    from viewshift.parse import parse_module
    scrambled["Empty"] = parse_module("module Empty where\n")
    assert alpha_eq_project(pfun, Project(scrambled))


def test_fresh_name_sequence():
    assert fresh_name("eval", {"eval"}) == "eval_gen"
    assert fresh_name("eval", {"eval", "eval_gen"}) == "eval_gen_1"
    assert fresh_name("f", set()) == "f_gen"
    assert fresh_name("f", {"f_gen", "f_gen_1"}) == "f_gen_2"
