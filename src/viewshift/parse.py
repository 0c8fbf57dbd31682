"""Parser for the object language.

One layout rule, Landin's offside rule, delimits every block: the items of
a block start lines at a common column, and while an item is parsed, a line
that starts at or left of that column ends it. Top-level declarations (a
block at column zero), `where` locals and case branches are such blocks.
An equation's right-hand side ends at the keyword `where`, which opens its
where-block; `let` always uses an explicit `in`. A contiguous block of
full-line `--` comments directly above a declaration attaches to it.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator

from .lang import (
    App, BUILTINS, Builtin, Case, CaseBranch, CommentBlock, ConApp,
    ConstructorDef, DataDecl, Equation, Expr, FunDecl, INFIX_OPS, Infix,
    IntLit, KEYWORDS, Let, LetBinding, LocalDef, ModuleDef, PCon, PInt,
    PTuple, PVar, PWild, Pattern, Project, StrLit, TopDecl, Tuple, Var,
    decl_name, pattern_vars, record,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


@record
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
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= raw[j] <= "9":
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


_ENDS = -1           # layout column of a token that ends every item
_INSIDE = 1 << 30    # layout column of a token that does not start a line
_ATOMS = ("lower", "con", "qual", "int", "str")  # token kinds that are atoms


class _Parser:
    """Recursive descent over the tokens of one text, with one layout rule.

    The items of a block (top-level declarations, where-locals, case
    branches) start lines at a common column, and while an item is parsed, a
    line that starts at or left of that column ends it: peek() returns None
    at such a token, unless it is the item's own first one, and at the end
    of input. In an equation's head and right-hand side it also returns
    None at `where`.
    """

    def __init__(self, toks: list[Tok]):
        self.toks = toks + [Tok("end", "", 1, 0)]  # also toks[-1] at position 0
        self.layout: list[int] = []      # each token's layout column
        self.rhs_layout: list[int] = []  # the same with `where` as an end
        line = 0  # the first token starts a line
        for t in toks:
            col = t.col if t.line != line else _INSIDE
            self.layout.append(col)
            self.rhs_layout.append(_ENDS if t.text == "where" else col)
            line = t.line
        self.layout.append(_ENDS)
        self.rhs_layout.append(_ENDS)
        self.starts = self.layout  # the layout peek() reads
        self.pos = 0
        self.first = -1    # the first token of the current item
        self.limit = -1    # the column of the innermost block
        self.end_col = -1  # ... of the innermost block that is not case branches

    # tokens ----------------------------------------------------------------

    def peek(self) -> Tok | None:
        pos = self.pos
        if self.starts[pos] > self.limit or pos == self.first:
            return self.toks[pos]
        return None

    def next(self) -> Tok:
        t = self.peek()
        if t is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def expect(self, text: str):
        if not self.at(text):
            raise self.error(f"expected keyword {text!r}" if text.isalpha() else f"expected {text!r}")
        self.pos += 1

    def ended(self) -> bool:
        """Whether the layout or the end of input ends the current item here;
        `where` never does."""
        return self.layout[self.pos] <= self.limit

    def trailing(self, what: str):
        if not self.ended():
            t = self.toks[self.pos]
            raise ParseError(f"trailing tokens after {what}", t.line, t.col)

    def error(self, message: str) -> ParseError:
        """An error at the next token. Where that token ends a declaration,
        a where-local or the input, the error is placed just after the
        token before it; where it only ends a case branch, at the token."""
        pos = self.pos
        if pos != self.first and self.starts[pos] <= self.end_col:
            t = self.toks[pos - 1]
            return ParseError(message, t.line, t.col + len(t.text))
        t = self.toks[pos]
        return ParseError(message, t.line, t.col)

    def block(self, col: int, case: bool = False) -> Iterator[None]:
        """Run the loop body once per item of a block whose items start
        lines at column col, with the layout limit at col; case branches
        keep the end column of the item around them (see error()). A
        generator, so that nested blocks add no stack frames."""
        saved = self.limit, self.end_col
        while True:
            self.limit, self.first = col, self.pos
            if not case:
                self.end_col = col
            yield
            if self.starts[self.pos] != col:
                break
        self.limit, self.end_col = saved

    def items(self, item: Callable) -> list:
        """A parenthesised comma list, the `(` already read."""
        out = [item()]
        while self.at(","):
            self.pos += 1
            out.append(item())
        self.expect(")")
        return out

    def binder(self, expected: str) -> str:
        """A name that a declaration, local, parameter, let or pattern binds;
        the builtins are reserved."""
        t = self.peek()
        if t is None or t.kind != "lower":
            raise self.error(expected)
        if t.text in BUILTINS:
            raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
        self.pos += 1
        return t.text

    def con(self, expected: str) -> str:
        t = self.next()
        if t.kind != "con":
            raise ParseError(expected, t.line, t.col)
        return t.text

    # patterns --------------------------------------------------------------

    def pattern(self) -> Pattern:
        t = self.peek()
        if t is None or t.kind != "con":
            return self.pattern_atom()
        self.pos += 1
        # Add (p, q) with nothing after the group is a tupled constructor.
        if self.at("("):
            save = self.pos
            self.pos += 1
            items = self.items(self.pattern)
            if len(items) >= 2 and not self._at_pattern_atom():
                return PCon(t.text, tuple(items), tupled=True)
            self.pos = save
        args = []
        while self._at_pattern_atom():
            args.append(self.pattern_atom())
        return PCon(t.text, tuple(args), tupled=False)

    def _at_pattern_atom(self) -> bool:
        t = self.peek()
        return t is not None and (t.kind in ("lower", "int", "con") or t.text in ("_", "("))

    def pattern_atom(self) -> Pattern:
        if not self._at_pattern_atom():
            raise self.error("expected a pattern")
        t = self.toks[self.pos]
        if t.kind == "lower":
            return PVar(self.binder("expected a pattern"))
        self.pos += 1
        if t.kind == "int":
            return PInt(t.value)  # type: ignore[arg-type]
        if t.kind == "con":
            return PCon(t.text, (), tupled=False)
        if t.text == "_":
            return PWild()
        items = self.items(self.pattern)
        return items[0] if len(items) == 1 else PTuple(tuple(items))

    # expressions -----------------------------------------------------------

    def expr(self, min_prec: int = 0) -> Expr:
        t = self.peek()
        if t is None:
            raise self.error("expected an expression")
        if t.text == "case":
            lhs = self.case_expr()
        elif t.text == "let":
            lhs = self.let_expr()
        else:
            lhs = self.atom()
            args = []
            while (t := self.peek()) is not None and (t.kind in _ATOMS or t.text == "("):
                args.append(self.atom())
            if isinstance(lhs, ConApp) and not lhs.args:
                lhs = ConApp(lhs.name, tuple(args))
            else:
                for a in args:
                    lhs = App(lhs, a)
        while True:
            t = self.peek()
            if t is None or t.text not in INFIX_OPS:
                return lhs
            prec, assoc = INFIX_OPS[t.text]
            if prec < min_prec:
                return lhs
            self.pos += 1
            lhs = Infix(t.text, lhs, self.expr(prec + 1 if assoc == "left" else prec))

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "lower":
            return Builtin(t.text) if t.text in BUILTINS else Var(t.text)
        if t.kind == "qual":
            qual, name = t.value  # type: ignore[misc]
            return Var(name, qualifier=qual)
        if t.kind == "con":
            return ConApp(t.text, ())
        if t.kind == "int":
            return IntLit(t.value)  # type: ignore[arg-type]
        if t.kind == "str":
            return StrLit(t.value)  # type: ignore[arg-type]
        if t.text == "(":
            items = self.items(self.expr)
            return items[0] if len(items) == 1 else Tuple(tuple(items))
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def case_expr(self) -> Expr:
        self.pos += 1
        scrutinee = self.expr()
        self.expect("of")
        first = self.peek()
        if first is None:
            raise self.error("expected case branches")
        branches = []
        for _ in self.block(first.col, case=True):
            t = self.toks[self.pos]
            pat = self.pattern()
            _check_distinct(pattern_vars(pat), "variable {!r} bound twice in one pattern", t)
            self.expect("->")
            branches.append(CaseBranch(pat, self.expr()))
        return Case(scrutinee, tuple(branches))

    def let_expr(self) -> Expr:
        self.pos += 1
        bindings = []
        while True:
            name = self.binder("expected a let binding name")
            self.expect("=")
            bindings.append(LetBinding(name, self.expr()))
            if not self.at(";"):
                break
            self.pos += 1
        self.expect("in")
        return Let(tuple(bindings), self.expr())

    # declarations ----------------------------------------------------------

    def header(self) -> tuple[str, tuple[str, ...] | None]:
        self.expect("module")
        name = self.con("expected a module name")
        exports = None
        if self.at("("):
            self.pos += 1
            if self.at(")"):
                self.pos += 1
                exports = ()
            else:
                exports = tuple(self.items(self.export))
        self.expect("where")
        return name, exports

    def export(self) -> str:
        t = self.next()
        if t.kind not in ("lower", "con"):
            raise ParseError("expected an exported identifier", t.line, t.col)
        return t.text

    def decls(
        self, comments: dict[int, str], imports_first: bool
    ) -> tuple[list[str], list[TopDecl]]:
        """The imports and declarations of the top-level block, whose items
        start lines in column 0. Consecutive equations of one name and one
        (non-zero) arity merge into a function, and each declaration takes
        the comment block directly above it."""
        imports: list[str] = []
        decls: list[TopDecl] = []
        names: set[str] = set()
        last_fun: str | None = None  # name of the immediately preceding FunDecl
        self.limit = self.end_col = 0
        try:
            while (first := self.toks[self.pos]).kind != "end":
                if self.layout[self.pos] != 0:
                    raise ParseError("declaration must start in column 0", first.line, first.col)
                self.first = self.pos
                if first.text == "import":
                    if decls or not imports_first:
                        raise ParseError("imports must precede declarations", first.line, first.col)
                    self.pos += 1
                    t = self.peek()
                    if t is not None and t.kind == "con":
                        self.pos += 1
                        if self.ended():
                            imports.append(t.text)
                            continue
                    raise ParseError("expected 'import ModuleName'", first.line, first.col)
                if first.text == "data":
                    d: TopDecl = self.data(_comment_above(comments, first.line))
                    last_fun = None
                else:
                    fname, eq = self.equation()
                    if fname == last_fun:
                        prev = decls[-1]
                        assert isinstance(prev, FunDecl)
                        if len(eq.patterns) != prev.arity or prev.arity == 0:
                            raise ParseError(f"duplicate top-level binding {fname!r}", first.line, first.col)
                        decls[-1] = FunDecl(fname, prev.equations + (eq,), prev.comment)
                        continue
                    d = FunDecl(fname, (eq,), _comment_above(comments, first.line))
                    last_fun = fname
                if d.name in names:
                    raise ParseError(f"duplicate top-level binding {d.name!r}", first.line, first.col)
                names.add(d.name)
                decls.append(d)
        except RecursionError:
            raise self.error("nesting too deep") from None
        return imports, decls

    def data(self, comment: CommentBlock | None) -> DataDecl:
        self.pos += 1
        name = self.con("expected a type name")
        self.expect("=")
        constructors = [self.constructor()]
        while self.at("|"):
            self.pos += 1
            constructors.append(self.constructor())
        self.trailing("data declaration")
        return DataDecl(name, tuple(constructors), comment)

    def constructor(self) -> ConstructorDef:
        name = self.con("expected a constructor name")
        if self.at("("):
            self.pos += 1
            types = self.items(lambda: self.con("expected a type name"))
            if len(types) < 2:
                raise self.error("a tupled constructor needs at least two components")
            return ConstructorDef(name, tuple(types), tupled=True)
        types = []
        while (t := self.peek()) is not None and t.kind == "con":
            types.append(t.text)
            self.pos += 1
        return ConstructorDef(name, tuple(types), tupled=False)

    def equation(self) -> tuple[str, Equation]:
        name_tok = self.toks[self.pos]
        self.starts = self.rhs_layout
        name = self.binder("expected a declaration name")
        patterns = []
        while not self.at("="):
            if self.peek() is None:
                raise self.error("expected '=' in declaration")
            patterns.append(self.pattern_atom())
        for p in patterns:
            _check_distinct(pattern_vars(p), "variable {!r} bound twice in one pattern", name_tok)
        self.pos += 1
        rhs = self.expr()
        if self.peek() is not None:
            raise self.error("trailing tokens after expression")
        self.starts = self.layout
        locals_: list[LocalDef] = []
        where = self.toks[self.pos]
        if where.text == "where" and not self.ended():
            self.pos += 1
            if self.ended():
                raise ParseError("empty where block", where.line, where.col)
            for _ in self.block(self.toks[self.pos].col):
                locals_.append(self.local())
            self.trailing("local binding")
            _check_distinct([loc.name for loc in locals_], "duplicate local binding {!r}", where)
        return name, Equation(tuple(patterns), rhs, tuple(locals_))

    def local(self) -> LocalDef:
        name = self.binder("expected a local binding name")
        params = []
        while not self.at("="):
            if self.peek() is None:
                raise self.error("expected '=' in local binding")
            params.append(self.binder("local parameters must be plain variables"))
        self.pos += 1
        rhs = self.expr()
        self.trailing("local binding")
        return LocalDef(name, tuple(params), rhs)


def _check_distinct(names, message: str, t: Tok):
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParseError(message.format(name), t.line, t.col)
        seen.add(name)


def parse_module(text: str, filename: str | None = None) -> ModuleDef:
    """Parse one module; a syntax error names filename when one is given."""
    try:
        toks, comments = tokenize(text)
        p = _Parser(toks)
        name, exports = p.header()
        imports, decls = p.decls(comments, imports_first=True)
        if exports is not None:
            declared = {decl_name(d) for d in decls}
            declared.update(c.name for d in decls if isinstance(d, DataDecl) for c in d.constructors)
            for export in exports:
                if export not in declared:
                    raise ParseError(f"exported identifier {export!r} is not declared", 1, 0)
    except ParseError as exc:
        if filename is None:
            raise
        raise ParseError(f"{filename}: {exc.message}", exc.line, exc.col) from None
    return ModuleDef(name, exports, tuple(imports), tuple(decls))


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


def parse_decl(text: str) -> TopDecl:
    """Parse a single top-level declaration (used for comment blocks)."""
    toks, _ = tokenize(text)
    if not toks:
        raise ParseError("empty declaration", 1, 0)
    _, decls = _Parser(toks).decls({}, imports_first=False)
    if len(decls) != 1:
        t = toks[0]
        raise ParseError("expected exactly one declaration", t.line, t.col)
    return decls[0]


def parse_expr(text: str) -> Expr:
    p = _Parser(tokenize(text)[0])
    try:
        e = p.expr()
    except RecursionError:
        raise p.error("nesting too deep") from None
    p.trailing("expression")
    return e


def read_source(path: str) -> str:
    """The text of a UTF-8 source file; a byte sequence that is not UTF-8 is
    a ParseError naming the file and the position of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        col = len(data[line_start:exc.start].decode("utf-8", "replace"))
        raise ParseError(
            f"{path}: not UTF-8 ({exc.reason}, byte 0x{data[exc.start]:02x})",
            data.count(b"\n", 0, exc.start) + 1, col,
        ) from None


def parse_project(directory: str) -> Project:
    """Read a project from a directory of <ModuleName>.mfn files."""
    modules: dict[str, ModuleDef] = {}
    names = sorted(f for f in os.listdir(directory) if f.endswith(".mfn"))
    if not names:
        raise ParseError(f"no .mfn files in {directory}", 1, 0)
    for fname in names:
        path = os.path.join(directory, fname)
        mod = parse_module(read_source(path), filename=path)
        stem = fname[:-4]
        if mod.name != stem:
            raise ParseError(
                f"module {mod.name!r} must live in {mod.name}.mfn, not {fname}", 1, 0
            )
        modules[mod.name] = mod
    return Project(modules)
