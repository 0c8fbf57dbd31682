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


@pytest.mark.parametrize("decl", [
    "f show = 1",
    "f = let print = 1 in 2",
    "f x = case x of\n    show -> 1",
    "f = g\n    where\n        print = 1",
    "f = g\n    where\n        g show = 1",
], ids=["pattern", "let", "case", "local", "local-parameter"])
def test_every_binder_reserves_the_builtins(decl):
    with pytest.raises(ParseError, match="is reserved"):
        parse_module("module M where\n\n" + decl)


_PARSERS = {"module": parse_module, "decl": parse_decl, "expr": parse_expr}

# One malformed input per place the parser raises, with the message and
# position it reports. An error at the end of a declaration, a where-local
# or the input is reported just after the last token before it; one where a
# case branch's layout ends the branch body is reported at the token.
_ERRORS = [
    ('expr', '"abc', ('unterminated string literal', 1, 0)),
    ('expr', '1 ? 2', ("unexpected character '?'", 1, 2)),
    ('module', 'module', ('unexpected end of input', 1, 6)),
    ('module', 'module M (', ('unexpected end of input', 1, 10)),
    ('module', 'module M where\n\ndata T =', ('unexpected end of input', 3, 8)),
    ('module', 'module M where\n\ndata T', ("expected '='", 3, 6)),
    ('expr', '(1, 2', ("expected ')'", 1, 5)),
    ('expr', 'let a = 1 )', ("expected keyword 'in'", 1, 10)),
    ('expr', 'case x in', ("expected keyword 'of'", 1, 7)),
    ('expr', 'case x of A = 1', ("expected '->'", 1, 12)),
    ('expr', 'let a 1 in 2', ("expected '='", 1, 6)),
    ('expr', '', ('expected an expression', 1, 0)),
    ('module', 'f = 1', ("expected keyword 'module'", 1, 0)),
    ('module', 'module M\nf = 1', ("expected keyword 'where'", 2, 0)),
    ('module', 'module M where\n\nf (x, x) = 1', ("variable 'x' bound twice in one pattern", 3, 0)),
    ('expr', 'case y of\n    (a, a) -> 1', ("variable 'a' bound twice in one pattern", 2, 4)),
    ('expr', 'case x of (a,', ('expected a pattern', 1, 13)),
    ('module', 'module M where\n\nf ) = 1', ('expected a pattern', 3, 2)),
    ('module', 'module M where\n\nf show = 1', ("'show' is reserved", 3, 2)),
    ('expr', '1 +', ('expected an expression', 1, 3)),
    ('expr', '1 + )', ("unexpected token ')'", 1, 4)),
    ('expr', 'case x of', ('expected case branches', 1, 9)),
    ('module', 'module M where\n\nf x = case x of\n    A ->\n    B -> 1', ('expected an expression', 5, 4)),
    ('module', 'module M where\n\nf x = case x of\n    A ->\n\ng = 1', ('expected an expression', 4, 8)),
    ('expr', 'let 1 = 2 in 3', ('expected a let binding name', 1, 4)),
    ('expr', 'let show = 1 in 2', ("'show' is reserved", 1, 4)),
    ('module', 'module M where\n\n  f = 1', ('declaration must start in column 0', 3, 2)),
    ('module', 'module M where\n\ndata x = A', ('expected a type name', 3, 5)),
    ('module', 'module M where\n\ndata T = A )', ('trailing tokens after data declaration', 3, 11)),
    ('module', 'module M where\n\ndata T = x', ('expected a constructor name', 3, 9)),
    ('module', 'module M where\n\ndata T = A (Int)\n\nf = 1', ('a tupled constructor needs at least two components', 3, 16)),
    ('module', 'module M where\n\ndata T = A (Int, x)', ('expected a type name', 3, 17)),
    ('module', 'module M where\n\nA = 1', ('expected a declaration name', 3, 0)),
    ('module', 'module M where\n\nf x\n\ng = 1', ("expected '=' in declaration", 3, 3)),
    ('module', 'module M where\n\nf x where\n    a = 1', ("expected '=' in declaration", 3, 3)),
    ('module', 'module M where\n\nf =\n\ng = 1', ('expected an expression', 3, 3)),
    ('module', 'module M where\n\nf = 1 + where a = 1', ('expected an expression', 3, 7)),
    ('module', 'module M where\n\nf = 1 )', ('trailing tokens after expression', 3, 6)),
    ('module', 'module M where\n\nf = 1 where', ('empty where block', 3, 6)),
    ('module', 'module M where\n\nf = 1\n    where\n        a = 1\n        a = 2', ("duplicate local binding 'a'", 4, 4)),
    ('module', 'module M where\n\nf = a where A = 1', ('expected a local binding name', 3, 12)),
    ('module', 'module M where\n\nf = a\n    where\n        a\n        b = 2', ("expected '=' in local binding", 5, 9)),
    ('module', 'module M where\n\nf = a where a (x) = 1', ('local parameters must be plain variables', 3, 14)),
    ('module', 'module M where\n\nf = a where a = 1 )', ('trailing tokens after local binding', 3, 18)),
    ('module', 'module m where', ('expected a module name', 1, 7)),
    ('module', 'module M (1) where', ('expected an exported identifier', 1, 10)),
    ('module', 'module M where\n\nimport x', ("expected 'import ModuleName'", 3, 0)),
    ('module', 'module M where\n\nf = 1\n\nimport A', ('imports must precede declarations', 5, 0)),
    ('module', 'module M where\n\ndata T = A\n\ndata T = B', ("duplicate top-level binding 'T'", 5, 0)),
    ('module', 'module M where\n\nf x = 1\nf = 2', ("duplicate top-level binding 'f'", 4, 0)),
    ('module', 'module M where\n\nf = 1\n\ng = 2\n\nf = 3', ("duplicate top-level binding 'f'", 7, 0)),
    ('module', 'module M (f, g) where\n\nf = 1', ("exported identifier 'g' is not declared", 1, 0)),
    ('decl', '', ('empty declaration', 1, 0)),
    ('decl', 'f = 1\n\ng = 2', ('expected exactly one declaration', 1, 0)),
    ('expr', '1 )', ('trailing tokens after expression', 1, 2)),
]


@pytest.mark.parametrize("kind, text, expected", _ERRORS)
def test_parse_error_positions(kind, text, expected):
    with pytest.raises(ParseError) as exc:
        _PARSERS[kind](text)
    assert (exc.value.message, exc.value.line, exc.value.col) == expected


@pytest.mark.parametrize("shape, depth", [
    (lambda n: "(" * n + "1" + ")" * n, 280),
    (lambda n: "case 1 of x -> " * n + "1", 280),
    (lambda n: "let a = " * n + "1" + " in a" * n, 220),
], ids=["parens", "case", "let"])
def test_nested_input_parses(shape, depth):
    assert parse_module("module M where\n\nr1 = " + shape(depth) + "\n").decl("r1")


@pytest.mark.parametrize("parse, prefix", [
    (parse_module, "module M where\n\nr1 = "),
    (parse_decl, "r1 = "),
    (parse_expr, ""),
], ids=["module", "decl", "expr"])
def test_nesting_too_deep_for_the_parser_is_a_parse_error(parse, prefix):
    # reported at the token the parser reached when it ran out of stack
    with pytest.raises(ParseError) as exc:
        parse(prefix + "(" * 2000 + "1" + ")" * 2000)
    start = len(prefix.split("\n")[-1])
    assert (exc.value.message, exc.value.line) == ("nesting too deep", prefix.count("\n") + 1)
    assert start < exc.value.col < start + 2000
