import pytest

from viewshift.lang import CommentBlock, DataDecl, FunDecl, PCon, PVar, Var
from viewshift.parse import ParseError, parse_decl, parse_expr, parse_module
from viewshift.render import render_decl, render_expr, render_module, render_project

EVALMOD = """module EvalMod where

import Expr

eval (Const i) = i
eval (Add (e1, e2)) = eval e1 + eval e2
"""


def test_parse_eval_module():
    mod = parse_module(EVALMOD)
    assert mod.name == "EvalMod"
    assert mod.imports == ("Expr",)
    d = mod.decl("eval")
    assert isinstance(d, FunDecl)
    assert len(d.equations) == 2
    p0 = d.equations[0].patterns[0]
    assert p0 == PCon("Const", (PVar("i"),), tupled=False)
    p1 = d.equations[1].patterns[0]
    assert p1 == PCon("Add", (PVar("e1"), PVar("e2")), tupled=True)


def test_parse_empty_module():
    mod = parse_module("module M where\n")
    assert mod.decls == ()
    assert render_module(mod) == "module M where\n"


def test_parse_missing_expression():
    with pytest.raises(ParseError) as exc:
        parse_module("module M where\nf = ")
    assert exc.value.line == 2


def test_parse_duplicate_binding():
    with pytest.raises(ParseError, match="duplicate top-level binding"):
        parse_module("module M where\nf = 1\ng = 2\nf = 3")


def test_duplicate_zero_arity_equations_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_module("module M where\nf = 1\nf = 2")


def test_redundant_parens_dropped():
    mod = parse_module("module M where\nevalAdd x y = (x) + (y)")
    assert render_decl(mod.decls[0]) == "evalAdd x y = x + y"


def test_render_precedence():
    cases = [
        "x + y * z",
        "(x + y) * z",
        "x ++ y ++ z",
        "(x ++ y) ++ z",
        "f (g x) y",
        "f x + g y",
        "Add (Const 1, Const 2)",
        'show (f x) ++ "+"',
    ]
    for text in cases:
        assert render_expr(parse_expr(text)) == text


def test_roundtrip_pfun_corpus(pfun):
    for name, mod in pfun.modules.items():
        text = render_module(mod)
        again = parse_module(text)
        assert again == mod, name


def test_roundtrip_pdata_corpus(pdata):
    for name, mod in pdata.modules.items():
        assert parse_module(render_module(mod)) == mod


def test_render_is_fixed_point(pfun, pdata):
    for project in (pfun, pdata):
        once = render_project(project)
        for fname, text in once.items():
            mod = parse_module(text)
            assert render_module(mod) == text, fname


def test_comment_block_attaches():
    src = "module M where\n\n-- copy line one\n-- copy line two\nf x = x\n"
    mod = parse_module(src)
    assert mod.decls[0].comment == CommentBlock(("copy line one", "copy line two"))
    assert render_module(mod) == src


def test_comment_block_separated_by_blank_does_not_attach():
    src = "module M where\n\n-- stray\n\nf x = x\n"
    mod = parse_module(src)
    assert mod.decls[0].comment is None


def test_where_block_roundtrip():
    src = (
        "module M where\n\n"
        "eval (Const i) = evalConst\n"
        "    where\n"
        "        evalConst = i\n"
    )
    mod = parse_module(src)
    eq = mod.decls[0].equations[0]
    assert eq.locals[0].name == "evalConst"
    assert render_module(mod) == src


def test_case_and_let_roundtrip():
    src = (
        "module M where\n\n"
        "data T = K Int | L (T, T)\n\n"
        "f x = let a = g in case x of\n"
        "    K i -> a i\n"
        "    L (p, q) -> f p + f q\n\n"
        "g y = y\n"
    )
    mod = parse_module(src)
    assert render_module(mod) == src


def test_parse_decl_single():
    d = parse_decl("eval x = fold1 AddMod.eval ConstMod.eval x")
    assert isinstance(d, FunDecl)
    assert d.equations[0].rhs.arg == Var("x")
    with pytest.raises(ParseError):
        parse_decl("f = 1\n\ng = 2")


def test_parse_decl_equations_of_different_arity_rejected():
    # a declaration merges equations by the same rule as a module
    with pytest.raises(ParseError, match="duplicate top-level binding"):
        parse_decl("f x = 1\nf = 2")


def test_exports_must_be_declared():
    with pytest.raises(ParseError, match="not declared"):
        parse_module("module M (f, g) where\nf = 1")
    mod = parse_module("module M (f) where\nf = 1")
    assert mod.exports == ("f",)


def test_qualified_names():
    e = parse_expr("ConstMod.eval i")
    assert e.fn == Var("eval", qualifier="ConstMod")
    assert render_expr(e) == "ConstMod.eval i"


def test_string_escapes_roundtrip():
    e = parse_expr('"a\\"b\\\\c\\nd"')
    assert e.value == 'a"b\\c\nd'
    assert parse_expr(render_expr(e)) == e


def test_data_decl_shapes():
    mod = parse_module("module M where\ndata Expr = Const Int | Add (Expr, Expr) | Nil")
    d = mod.decls[0]
    assert isinstance(d, DataDecl)
    const, add, nil = d.constructors
    assert (const.arg_types, const.tupled) == (("Int",), False)
    assert (add.arg_types, add.tupled) == (("Expr", "Expr"), True)
    assert (nil.arg_types, nil.tupled) == ((), False)


def test_reserved_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_module("module M where\nshow = 1")
