"""Parser for the object language.

Layout rules are deliberately simple: top-level declarations start in column
zero; `where` locals and case branches are delimited by line starts at a
common column; `let` always uses an explicit `in`. A contiguous block of
full-line `--` comments directly above a declaration attaches to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .lang import (
    App, BUILTINS, Builtin, Case, CaseBranch, CommentBlock, ConApp,
    ConstructorDef, DataDecl, Equation, Expr, FunDecl, INFIX_OPS, Infix,
    IntLit, KEYWORDS, Let, LetBinding, LocalDef, ModuleDef, PCon, PInt,
    PTuple, PVar, PWild, Pattern, Project, StrLit, TopDecl, Tuple, Var,
    decl_name, pattern_vars,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Tok:
    kind: str  # lower | con | qual | int | str | sym | kw
    text: str
    line: int  # 1-based
    col: int   # 0-based
    value: object = None  # int value, str value, or (qualifier, name)


_SYMBOLS = ("->", "++", "=", "(", ")", ",", "|", "+", "*", ";")


def tokenize(text: str) -> tuple[list[Tok], dict[int, str]]:
    """Return (tokens, comment lines). Comments keyed by 1-based line number."""
    toks: list[Tok] = []
    comments: dict[int, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch in " \t":
                i += 1
                continue
            if raw.startswith("--", i):
                body = raw[i + 2:]
                if body.startswith(" "):
                    body = body[1:]
                if raw[:i].strip() == "":
                    comments[lineno] = body
                i = n
                continue
            if ch == '"':
                j = i + 1
                out = []
                while j < n and raw[j] != '"':
                    if raw[j] == "\\" and j + 1 < n:
                        esc = raw[j + 1]
                        out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                        j += 2
                    else:
                        out.append(raw[j])
                        j += 1
                if j >= n:
                    raise ParseError("unterminated string literal", lineno, i)
                toks.append(Tok("str", raw[i:j + 1], lineno, i, "".join(out)))
                i = j + 1
                continue
            if ch.isdigit():
                j = i
                while j < n and raw[j].isdigit():
                    j += 1
                toks.append(Tok("int", raw[i:j], lineno, i, int(raw[i:j])))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (raw[j].isalnum() or raw[j] in "_'"):
                    j += 1
                word = raw[i:j]
                if word == "_":
                    toks.append(Tok("sym", "_", lineno, i))
                elif word in KEYWORDS:
                    toks.append(Tok("kw", word, lineno, i))
                elif word[0].isupper():
                    # A qualified name Con.lower must be written without spaces.
                    if j < n and raw[j] == "." and j + 1 < n and (raw[j + 1].isalpha() and raw[j + 1].islower() or raw[j + 1] == "_"):
                        k = j + 1
                        while k < n and (raw[k].isalnum() or raw[k] in "_'"):
                            k += 1
                        name = raw[j + 1:k]
                        toks.append(Tok("qual", raw[i:k], lineno, i, (word, name)))
                        i = k
                        continue
                    toks.append(Tok("con", word, lineno, i))
                else:
                    toks.append(Tok("lower", word, lineno, i))
                i = j
                continue
            matched = False
            for sym in _SYMBOLS:
                if raw.startswith(sym, i):
                    toks.append(Tok("sym", sym, lineno, i))
                    i += len(sym)
                    matched = True
                    break
            if not matched:
                raise ParseError(f"unexpected character {ch!r}", lineno, i)
    return toks, comments


class _TokenCursor:
    """Cursor over a token slice with a column limit for layout-sensitive exprs.

    A token that starts a new line at a column <= the current limit is treated
    as end-of-input until the limit is popped.
    """

    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.pos = 0
        self.limits: list[int] = [-1]
        self.line_starts = set()
        last_line = None
        for i, t in enumerate(toks):
            if t.line != last_line:
                self.line_starts.add(i)
                last_line = t.line

    def _blocked(self, i: int) -> bool:
        return i in self.line_starts and self.toks[i].col <= self.limits[-1]

    def peek(self) -> Tok | None:
        if self.pos >= len(self.toks) or self._blocked(self.pos):
            return None
        return self.toks[self.pos]

    def next(self) -> Tok:
        t = self.peek()
        if t is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "sym" and t.text == text

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "kw" and t.text == word

    def expect_sym(self, text: str) -> Tok:
        t = self.peek()
        if t is None or t.kind != "sym" or t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def expect_kw(self, word: str) -> Tok:
        t = self.peek()
        if t is None or t.kind != "kw" or t.text != word:
            self.fail(f"expected keyword {word!r}")
        return self.next()

    def fail(self, message: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise ParseError(message, t.line, t.col)
        if self.toks:
            t = self.toks[-1]
            raise ParseError(message, t.line, t.col + len(t.text))
        raise ParseError(message, 1, 0)


def _check_linear(p: Pattern, line: int, col: int):
    seen: set[str] = set()
    for v in pattern_vars(p):
        if v in seen:
            raise ParseError(f"variable {v!r} bound twice in one pattern", line, col)
        seen.add(v)


class _ExprParser:
    def __init__(self, cur: _TokenCursor):
        self.cur = cur

    # patterns ------------------------------------------------------------

    def pattern(self) -> Pattern:
        t = self.cur.peek()
        if t is None:
            self.cur.fail("expected a pattern")
        if t.kind == "con":
            self.cur.next()
            # Add (p, q) with nothing after the group is a tupled constructor.
            if self.cur.at_sym("("):
                save = self.cur.pos
                self.cur.next()
                items = [self.pattern()]
                while self.cur.at_sym(","):
                    self.cur.next()
                    items.append(self.pattern())
                self.cur.expect_sym(")")
                if len(items) >= 2 and not self._at_pattern_atom():
                    return PCon(t.text, tuple(items), tupled=True)
                self.cur.pos = save
            args = []
            while self._at_pattern_atom():
                args.append(self.pattern_atom())
            return PCon(t.text, tuple(args), tupled=False)
        return self.pattern_atom()

    def _at_pattern_atom(self) -> bool:
        t = self.cur.peek()
        if t is None:
            return False
        return (
            t.kind in ("lower", "int", "con")
            or (t.kind == "sym" and t.text in ("_", "("))
        )

    def pattern_atom(self) -> Pattern:
        t = self.cur.peek()
        if t is None:
            self.cur.fail("expected a pattern")
        if t.kind == "lower":
            self.cur.next()
            if t.text in BUILTINS:
                raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
            return PVar(t.text)
        if t.kind == "int":
            self.cur.next()
            return PInt(t.value)  # type: ignore[arg-type]
        if t.kind == "con":
            self.cur.next()
            return PCon(t.text, (), tupled=False)
        if t.kind == "sym" and t.text == "_":
            self.cur.next()
            return PWild()
        if t.kind == "sym" and t.text == "(":
            self.cur.next()
            items = [self.pattern()]
            while self.cur.at_sym(","):
                self.cur.next()
                items.append(self.pattern())
            self.cur.expect_sym(")")
            if len(items) == 1:
                return items[0]
            return PTuple(tuple(items))
        self.cur.fail("expected a pattern")

    # expressions ---------------------------------------------------------

    def expr(self, min_prec: int = 0) -> Expr:
        lhs = self.application()
        while True:
            t = self.cur.peek()
            if t is None or t.kind != "sym" or t.text not in INFIX_OPS:
                return lhs
            prec, assoc = INFIX_OPS[t.text]
            if prec < min_prec:
                return lhs
            self.cur.next()
            rhs = self.expr(prec + 1 if assoc == "left" else prec)
            lhs = Infix(t.text, lhs, rhs)

    def application(self) -> Expr:
        t = self.cur.peek()
        if t is None:
            self.cur.fail("expected an expression")
        if t.kind == "kw" and t.text == "case":
            return self.case_expr()
        if t.kind == "kw" and t.text == "let":
            return self.let_expr()
        head = self.atom()
        args = []
        while self._at_atom():
            args.append(self.atom())
        if isinstance(head, ConApp) and not head.args:
            return ConApp(head.name, tuple(args))
        for a in args:
            head = App(head, a)
        return head

    def _at_atom(self) -> bool:
        t = self.cur.peek()
        if t is None:
            return False
        if t.kind in ("lower", "con", "qual", "int", "str"):
            return True
        return t.kind == "sym" and t.text == "("

    def atom(self) -> Expr:
        t = self.cur.next()
        if t.kind == "lower":
            if t.text in BUILTINS:
                return Builtin(t.text)
            return Var(t.text)
        if t.kind == "qual":
            qual, name = t.value  # type: ignore[misc]
            return Var(name, qualifier=qual)
        if t.kind == "con":
            return ConApp(t.text, ())
        if t.kind == "int":
            return IntLit(t.value)  # type: ignore[arg-type]
        if t.kind == "str":
            return StrLit(t.value)  # type: ignore[arg-type]
        if t.kind == "sym" and t.text == "(":
            items = [self.expr()]
            while self.cur.at_sym(","):
                self.cur.next()
                items.append(self.expr())
            self.cur.expect_sym(")")
            if len(items) == 1:
                return items[0]
            return Tuple(tuple(items))
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def case_expr(self) -> Expr:
        self.cur.expect_kw("case")
        scrutinee = self.expr()
        self.cur.expect_kw("of")
        first = self.cur.peek()
        if first is None:
            self.cur.fail("expected case branches")
        branch_col = first.col
        branches = []
        while True:
            t = self.cur.peek()
            pat = self.pattern()
            _check_linear(pat, t.line, t.col)
            self.cur.expect_sym("->")
            # The body may span lines indented past the branch column; the
            # next branch starts a line exactly at the branch column.
            self.cur.limits.append(branch_col)
            try:
                body = self.expr()
            finally:
                self.cur.limits.pop()
            branches.append(CaseBranch(pat, body))
            nxt = self.cur.peek()
            if nxt is None or nxt.col != branch_col:
                break
        return Case(scrutinee, tuple(branches))

    def let_expr(self) -> Expr:
        self.cur.expect_kw("let")
        bindings = [self.let_binding()]
        while self.cur.at_sym(";"):
            self.cur.next()
            bindings.append(self.let_binding())
        self.cur.expect_kw("in")
        body = self.expr()
        return Let(tuple(bindings), body)

    def let_binding(self) -> LetBinding:
        t = self.cur.peek()
        if t is None or t.kind != "lower":
            self.cur.fail("expected a let binding name")
        if t.text in BUILTINS:
            raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
        self.cur.next()
        self.cur.expect_sym("=")
        return LetBinding(t.text, self.expr())


# --- module-level parsing ---

def _layout_split(toks: list[Tok], col: int) -> list[list[Tok]]:
    """The layout rule of declarations and where-locals alike: a new item
    starts at each token that starts a line at column col."""
    items: list[list[Tok]] = []
    last_line = None
    for t in toks:
        if t.line != last_line and t.col == col:
            items.append([])
        elif not items:
            raise ParseError("declaration must start in column 0", t.line, t.col)
        items[-1].append(t)
        last_line = t.line
    return items


def _parse_data_group(toks: list[Tok]) -> DataDecl:
    cur = _TokenCursor(toks)
    cur.expect_kw("data")
    t = cur.next()
    if t.kind != "con":
        raise ParseError("expected a type name", t.line, t.col)
    cur.expect_sym("=")
    constructors = [_parse_constructor(cur)]
    while cur.at_sym("|"):
        cur.next()
        constructors.append(_parse_constructor(cur))
    if cur.peek() is not None:
        cur.fail("trailing tokens after data declaration")
    return DataDecl(t.text, tuple(constructors))


def _parse_constructor(cur: _TokenCursor) -> ConstructorDef:
    t = cur.next()
    if t.kind != "con":
        raise ParseError("expected a constructor name", t.line, t.col)
    if cur.at_sym("("):
        cur.next()
        names = [_type_name(cur)]
        while cur.at_sym(","):
            cur.next()
            names.append(_type_name(cur))
        cur.expect_sym(")")
        if len(names) < 2:
            cur.fail("a tupled constructor needs at least two components")
        return ConstructorDef(t.text, tuple(names), tupled=True)
    names = []
    while True:
        nxt = cur.peek()
        if nxt is None or nxt.kind != "con":
            break
        names.append(cur.next().text)
    return ConstructorDef(t.text, tuple(names), tupled=False)


def _type_name(cur: _TokenCursor) -> str:
    t = cur.next()
    if t.kind != "con":
        raise ParseError("expected a type name", t.line, t.col)
    return t.text


def _parse_equation_group(toks: list[Tok]) -> tuple[str, Equation]:
    # Split off a where-block if present (the keyword only occurs here).
    where_at = None
    for i, t in enumerate(toks):
        if t.kind == "kw" and t.text == "where":
            where_at = i
            break
    head, local_toks = (toks, []) if where_at is None else (toks[:where_at], toks[where_at + 1:])

    cur = _TokenCursor(head)
    name_tok = cur.next()
    if name_tok.kind != "lower":
        raise ParseError("expected a declaration name", name_tok.line, name_tok.col)
    if name_tok.text in BUILTINS:
        raise ParseError(f"{name_tok.text!r} is reserved", name_tok.line, name_tok.col)
    ep = _ExprParser(cur)
    patterns = []
    while not cur.at_sym("="):
        if cur.peek() is None:
            cur.fail("expected '=' in declaration")
        patterns.append(ep.pattern_atom())
    for p in patterns:
        _check_linear(p, name_tok.line, name_tok.col)
    cur.expect_sym("=")
    if cur.peek() is None:
        cur.fail("expected an expression")
    rhs = ep.expr()
    if cur.peek() is not None:
        cur.fail("trailing tokens after expression")

    locals_: list[LocalDef] = []
    if where_at is not None:
        if not local_toks:
            t = toks[where_at]
            raise ParseError("empty where block", t.line, t.col)
        locals_ = [_parse_local(sl) for sl in _layout_split(local_toks, local_toks[0].col)]
        seen = set()
        for loc in locals_:
            if loc.name in seen:
                t = toks[where_at]
                raise ParseError(f"duplicate local binding {loc.name!r}", t.line, t.col)
            seen.add(loc.name)
    return name_tok.text, Equation(tuple(patterns), rhs, tuple(locals_))


def _parse_local(toks: list[Tok]) -> LocalDef:
    cur = _TokenCursor(toks)
    name_tok = cur.next()
    if name_tok.kind != "lower" or name_tok.text in BUILTINS:
        raise ParseError("expected a local binding name", name_tok.line, name_tok.col)
    params = []
    while not cur.at_sym("="):
        t = cur.peek()
        if t is None:
            cur.fail("expected '=' in local binding")
        if t.kind != "lower":
            raise ParseError("local parameters must be plain variables", t.line, t.col)
        params.append(cur.next().text)
    cur.expect_sym("=")
    ep = _ExprParser(cur)
    rhs = ep.expr()
    if cur.peek() is not None:
        cur.fail("trailing tokens after local binding")
    return LocalDef(name_tok.text, tuple(params), rhs)


def parse_module(text: str, filename: str = "<module>") -> ModuleDef:
    toks, comments = tokenize(text)
    cur = _TokenCursor(toks)
    cur.expect_kw("module")
    name_tok = cur.next()
    if name_tok.kind != "con":
        raise ParseError("expected a module name", name_tok.line, name_tok.col)
    exports = None
    if cur.at_sym("("):
        cur.next()
        names = []
        if not cur.at_sym(")"):
            while True:
                t = cur.next()
                if t.kind not in ("lower", "con"):
                    raise ParseError("expected an exported identifier", t.line, t.col)
                names.append(t.text)
                if cur.at_sym(","):
                    cur.next()
                    continue
                break
        cur.expect_sym(")")
        exports = tuple(names)
    cur.expect_kw("where")

    groups = _layout_split(toks[cur.pos:], 0)
    imports: list[str] = []
    for first, *rest in groups:
        if not (first.kind == "kw" and first.text == "import"):
            break
        if len(rest) != 1 or rest[0].kind != "con":
            raise ParseError("expected 'import ModuleName'", first.line, first.col)
        imports.append(rest[0].text)
    decls = _decls(groups[len(imports):], comments)

    mod = ModuleDef(name_tok.text, exports, tuple(imports), tuple(decls))
    _check_exports(mod, filename)
    return mod


def _decls(groups: list[list[Tok]], comments: dict[int, str]) -> list[TopDecl]:
    """The declarations of a run of declaration groups: consecutive equations
    of one name and one (non-zero) arity merge into a function, and each
    declaration takes the comment block directly above it."""
    decls: list[TopDecl] = []
    last_fun: str | None = None  # name of the immediately preceding FunDecl
    for group in groups:
        first = group[0]
        if first.kind == "kw" and first.text == "import":
            raise ParseError("imports must precede declarations", first.line, first.col)
        comment = _comment_above(comments, first.line)
        if first.kind == "kw" and first.text == "data":
            d = _parse_data_group(group)
            if any(decl_name(dd) == d.name for dd in decls):
                raise ParseError(f"duplicate top-level binding {d.name!r}", first.line, first.col)
            decls.append(DataDecl(d.name, d.constructors, comment))
            last_fun = None
            continue
        fname, eq = _parse_equation_group(group)
        if fname == last_fun:
            prev = decls[-1]
            assert isinstance(prev, FunDecl)
            if len(eq.patterns) != prev.arity or prev.arity == 0:
                raise ParseError(
                    f"duplicate top-level binding {fname!r}", first.line, first.col
                )
            decls[-1] = FunDecl(fname, prev.equations + (eq,), prev.comment)
            continue
        if any(decl_name(d) == fname for d in decls):
            raise ParseError(f"duplicate top-level binding {fname!r}", first.line, first.col)
        decls.append(FunDecl(fname, (eq,), comment))
        last_fun = fname
    return decls


def _comment_above(comments: dict[int, str], decl_line: int) -> CommentBlock | None:
    lines = []
    line = decl_line - 1
    while line in comments:
        lines.append(comments[line])
        line -= 1
    if not lines:
        return None
    lines.reverse()
    return CommentBlock(tuple(lines))


def _check_exports(mod: ModuleDef, filename: str):
    if mod.exports is None:
        return
    declared = set()
    for d in mod.decls:
        declared.add(decl_name(d))
        if isinstance(d, DataDecl):
            declared.update(c.name for c in d.constructors)
    for name in mod.exports:
        if name not in declared:
            raise ParseError(f"exported identifier {name!r} is not declared", 1, 0)


def parse_decl(text: str) -> TopDecl:
    """Parse a single top-level declaration (used for comment blocks)."""
    toks, _ = tokenize(text)
    if not toks:
        raise ParseError("empty declaration", 1, 0)
    decls = _decls(_layout_split(toks, 0), {})
    if len(decls) != 1:
        t = toks[0]
        raise ParseError("expected exactly one declaration", t.line, t.col)
    return decls[0]


def parse_expr(text: str) -> Expr:
    toks, _ = tokenize(text)
    cur = _TokenCursor(toks)
    e = _ExprParser(cur).expr()
    if cur.peek() is not None:
        cur.fail("trailing tokens after expression")
    return e


def parse_project(directory: str) -> Project:
    """Read a project from a directory of <ModuleName>.mfn files."""
    modules: dict[str, ModuleDef] = {}
    names = sorted(f for f in os.listdir(directory) if f.endswith(".mfn"))
    if not names:
        raise ParseError(f"no .mfn files in {directory}", 1, 0)
    for fname in names:
        path = os.path.join(directory, fname)
        with open(path, encoding="utf-8") as fh:
            mod = parse_module(fh.read(), filename=fname)
        stem = fname[:-4]
        if mod.name != stem:
            raise ParseError(
                f"module {mod.name!r} must live in {mod.name}.mfn, not {fname}", 1, 0
            )
        modules[mod.name] = mod
    return Project(modules)
