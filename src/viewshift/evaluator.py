"""Call-by-need evaluator for the object language, compiled to closures.

Top-level bindings of the whole project form one mutually recursive heap of
cells (the let-rec layer); each thunk is forced at most once and memoized.
`print` wraps its text in an output value rather than performing IO, so an
observation is a pure, comparable result.

Each function declaration is compiled once into Python closures (Feeley and
Lapalme, "Using closures for code generation", 1987): an expression becomes
code `code(ev, env)`, a pattern a matcher `match(ev, cell, out)` that appends
the cells it binds to `out`. A bound variable compiles to a slot of the
run-time environment (a list of cells in binding order), a global one to its
site `(module, qualifier, name)`. Compiled code so depends only on the
declaration and its module's name, and lives on the `FunDecl` object, keyed
by that name: a step recompiles only the declarations it changes. In weak
head normal form an Int is a plain `int` and a String a plain `str`; only
`deep` boxes them as `VInt` and `VStr`. A cell is a list `[value, code, env]`:
a thunk's value is None; forcing puts the black hole `_HOLE` in its code
slot, so a value that needs itself fails, then stores the value and clears
code and env, so a memoized cell keeps no environment alive.

A function's equations, and a case's arms, are dispatched on the constructor
in one column k (Augustsson 1985; Maranget 2008) when every row's patterns
before k are variables or wildcards and the first row's pattern at k is a
constructor: the linear scan would force argument k first, and each row it
skips (another constructor, a literal or a tuple at k) fails there without
forcing anything else. Candidates keep source order, and a value that is not
a constructor takes the linear scan, so the counts, the step at which the
budget runs out and the errors are the scan's.

Names resolve per `Evaluator`, against its project, when a site is first
evaluated; the evaluator keeps the cell each site denotes and creates a
binding's cell on its first lookup. A name that does not resolve raises the
project's ResolveError when it is evaluated, and not before. An observation
(`observe_entries`) is one `Evaluator`: its entries share the heap, so a
top-level cell one entry forced is not evaluated again for the next.

Code in tail position (a case or let body, the body of a saturated call) is
not called but returned as a `(code, env)` pair to a trampoline (`_run`,
`force`, an operand's), so runaway recursion meets the step budget instead
of the host stack. Every expression node ticks once when entered, and so
does each application round and each node of deep forcing: the reduction
count is that of a tree walk over the same expressions. A call whose head is
a variable adds the ticks of the call and its head at once, only while both
fit the budget, and a saturated call skips the general application loop. The
budget is per entry: the ticks test the evaluator's `limit`, which an
observation moves to the count so far plus the budget before each entry, so
an entry may perform budget reductions of its own.
"""

from __future__ import annotations

from .lang import (
    App, Builtin, Case, ConApp, Expr, FunDecl, Infix, IntLit, Let, PCon, PInt,
    PTuple, PVar, PWild, Pattern, Project, StrLit, Tuple, Var, app_spine,
    pattern_vars, record, var_slot,
)
from .resolver import (
    SymbolTable, build_symbol_table, decl_index, project_state, resolve_var, ResolveError,
)

DEFAULT_BUDGET = 10**6


class EvalError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# --- public (deeply forced) values ---

class Value:
    pass


@record
class VInt(Value):
    value: int


@record
class VStr(Value):
    value: str


@record
class VCon(Value):
    name: str
    args: tuple[Value, ...]


@record
class VTuple(Value):
    items: tuple[Value, ...]


@record
class VOutput(Value):
    text: str


@record
class VClosure(Value):
    """A partially applied function; opaque under deep forcing."""
    name: str
    missing: int


def show_value(v: Value) -> str:
    """The text of a value. The walk keeps its own stack of values and
    literal text still to show, so any value `deep` builds can be shown."""
    out: list[str] = []
    todo: list = [v]
    while todo:
        v = todo.pop()
        match v:
            case str():
                out.append(v)
            case VInt(n):
                out.append(str(n))
            case VStr(s):
                out.append('"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"')
            case VOutput(text):
                out.append(text)
            case VCon(name, args):
                out.append(name)
                for a in reversed(args):
                    todo += (")", a, " (") if isinstance(a, VCon) and a.args else (a, " ")
            case VTuple(items):
                out.append("(")
                todo.append(")")
                for i, item in reversed(tuple(enumerate(items))):
                    todo += (item, ", ") if i else (item,)
            case VClosure(name, _):
                out.append(f"<{name}>")
            case _:
                raise TypeError(v)
    return "".join(out)


# --- machine internals ---

_HOLE = object()  # a cell's code while it is being forced (a black hole)


@record
class _Fun:
    """A compiled function: per equation, (matcher, body); its _dispatch."""
    name: str
    arity: int
    equations: tuple[tuple[object, object], ...]
    dispatch: tuple | None = None


class _Closure:
    """Function value: compiled function, captured environment, argument cells so far."""
    __slots__ = ("fun", "env", "args")

    def __init__(self, fun: _Fun, env: list, args: tuple = ()):
        self.fun, self.env, self.args = fun, env, args


class _WCon:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name, self.args = name, args


class _WTuple:
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


@record
class _Builtin:
    name: str


class EvalStats:
    __slots__ = ("steps", "forcings")

    def __init__(self):
        self.steps = 0
        self.forcings = 0  # thunks entered (memoized afterwards)

    def __eq__(self, other):
        return (self.steps, self.forcings) == (other.steps, other.forcings)


class Evaluator:
    def __init__(self, project: Project, budget: int = DEFAULT_BUDGET):
        self.project = project
        self.budget = budget
        self.limit = budget  # the step count the budget ends at; see observe_entries
        self.stats = EvalStats()
        self.table: SymbolTable = build_symbol_table(project)
        # global site -> the cell it denotes; a binding's own cell is kept
        # under its self-qualified site (module, module, name)
        self.cells: dict[tuple[str, str | None, str], list] = {}

    def _site(self, site: tuple[str, str | None, str]) -> list:
        """Resolve a global site in this project, on its first use; a
        binding's cell is created on its first lookup. An unqualified name
        with one candidate in its module's scope is read from the table, any
        other through resolve_var, whose errors are the resolver's."""
        module, qualifier, name = site
        refs = self.table.scopes.get(module, {}).get(name, ()) if qualifier is None else ()
        ref = refs[0] if len(refs) == 1 else resolve_var(self.table, self.project, module, frozenset(), Var(name, qualifier))
        own = (ref.module, ref.module, ref.name)
        cell = self.cells.get(own)
        if cell is None:
            d = decl_index(self.project.modules[ref.module]).get(ref.name)
            if not isinstance(d, FunDecl):
                raise EvalError("UnresolvedName", f"{ref.module}.{ref.name} is not a value binding")
            compiled = d.__dict__.setdefault("_code", {})  # per module name
            fun = compiled.get(ref.module) or compiled.setdefault(ref.module, _compile_decl(ref.module, d))
            cell = [_Closure(fun, []), None, None] if fun.arity else [None, fun.equations[0][1], []]
        self.cells[own] = self.cells[site] = cell
        return cell

    def _exhausted(self) -> EvalError:
        return EvalError("StepBudgetExceeded", f"reduction budget of {self.budget} steps exceeded")

    def force(self, cell: list):
        """The value of cell, running its thunk on the trampoline once."""
        value, code, env = cell
        if value is not None:
            return value
        if code is _HOLE:
            raise EvalError("CyclicEvaluation", "value depends on itself")
        cell[1] = _HOLE
        self.stats.forcings += 1
        value = code(self, env)
        while type(value) is tuple:
            code, env = value
            value = code(self, env)
        cell[0] = value
        cell[1] = cell[2] = None
        return value

    # -- evaluation to weak head normal form --

    def eval_expr(self, e: Expr, env: dict, module: str):
        """Evaluate e in the scope of module, env binding names to cells."""
        return self._run(_Compiler(module).expr(e, tuple(env)), list(env.values()))

    def _run(self, code, env: list):
        """The trampoline: code in tail position comes back as a
        (code, env) pair and is continued here rather than called."""
        value = code(self, env)
        while type(value) is tuple:
            code, env = value
            value = code(self, env)
        return value

    def _apply(self, fn, cells: list[list]):
        """Apply cells to fn; returns a value or a tail for the trampoline."""
        stats = self.stats
        while cells:
            stats.steps += 1
            if stats.steps > self.limit:
                raise self._exhausted()
            if isinstance(fn, _Builtin):
                fn = _apply_builtin(fn.name, self.force(cells.pop(0)))
                continue
            if not isinstance(fn, _Closure):
                raise EvalError("EvalError", "applied a non-function value")
            fun, take = fn.fun, fn.fun.arity - len(fn.args)
            args = fn.args + tuple(cells[:take])
            cells = cells[take:]
            if len(args) < fun.arity:
                return _Closure(fun, fn.env, args)
            tail = self._select(fun, fn.env, args)
            if not cells:
                return tail
            fn = self._run(*tail)
        return fn

    def _select(self, fun: _Fun, env: list, args):
        """The body of the first equation whose patterns match args, with
        the environment it runs in."""
        equations = fun.equations
        if fun.dispatch:
            column, table, other = fun.dispatch
            v = self.force(args[column])
            if type(v) is _WCon:
                equations = table.get(v.name, other)
        for match, body in equations:
            out = env.copy()
            if match(self, args, out):
                return body, out
        raise EvalError("PatternMatchFailure", f"no equation of {fun.name} matches its arguments")

    # -- deep forcing to public values --

    def deep(self, v) -> Value:
        """Force v and every component, depth first, one tick per node. The
        walk keeps its own stack, so infinite data meets the step budget."""
        stats = self.stats
        stack: list = []  # open containers, outermost first
        firsts: list[int] = []  # per open container, where its components start in done
        done: list = []  # observed values of the open containers' components
        while True:
            stats.steps += 1
            if stats.steps > self.limit:
                raise self._exhausted()
            t = type(v)
            if t is _WCon or t is _WTuple:
                stack.append(v)
                firsts.append(len(done))
            elif t is _Closure:
                done.append(VClosure(v.fun.name, v.fun.arity - len(v.args)))
            elif t is _Builtin:
                done.append(VClosure(v.name, 1))
            else:  # int, str or VOutput
                done.append(VInt(v) if t is int else VStr(v) if t is str else v)
            while stack:
                top, first = stack[-1], firsts[-1]
                cells = top.args if type(top) is _WCon else top.items
                if len(done) - first < len(cells):
                    v = self.force(cells[len(done) - first])
                    break
                stack.pop()
                firsts.pop()
                parts = tuple(done[first:])
                del done[first:]
                done.append(VCon(top.name, parts) if type(top) is _WCon else VTuple(parts))
            else:
                return done[0]


def _apply_builtin(name: str, v):
    if name == "show":
        if type(v) is int:
            return str(v)
        raise EvalError("EvalError", "show expects an integer")
    assert name == "print"
    if type(v) is str:
        return VOutput(v)
    raise EvalError("EvalError", "print expects text")


# --- the compiler ---
#
# Every tick is inline (stats.steps += 1, then the budget test), and
# variables and matchers read a cell's value before calling force.

def _bind(ev, cell, out) -> bool:
    out.append(cell)
    return True


def _wild(ev, cell, out) -> bool:
    return True


def _constant(value):
    def code(ev, env):
        ev.stats.steps += 1
        if ev.stats.steps > ev.limit:
            raise ev._exhausted()
        return value
    return code


_FREE = (PVar, PWild)  # the patterns that match without forcing


def _dispatch(rows: list[tuple[Pattern, ...]], compiled: tuple) -> tuple | None:
    """(column, constructor -> candidate rows, any other constructor's) for
    the compiled rows of patterns, or None: the rule is the module docstring's."""
    k = next((i for i, p in enumerate(rows[0]) if not isinstance(p, _FREE)), None) if rows else None
    if k is None or not isinstance(rows[0][k], PCon) or any(not isinstance(p, _FREE) for r in rows for p in r[:k]):
        return None

    def candidates(name):
        return tuple(c for r, c in zip(rows, compiled)
                     if isinstance(r[k], _FREE) or isinstance(r[k], PCon) and r[k].name == name)
    return k, {r[k].name: candidates(r[k].name) for r in rows if isinstance(r[k], PCon)}, candidates(None)


def _compile_decl(module: str, d: FunDecl) -> _Fun:
    compiler = _Compiler(module)
    equations = [eq for eq in d.equations if len(eq.patterns) == d.arity]  # others never match
    compiled = tuple(compiler.equation(eq.patterns, eq.locals, eq.rhs, ()) for eq in equations)
    return _Fun(d.name, d.arity, compiled, _dispatch([eq.patterns for eq in equations], compiled))


class _Compiler:
    """Compiles code of one module. A scope names the environment's slots in
    order; a variable denotes the last slot of its name (lang.var_slot), or
    else its global site (module, qualifier, name), which the evaluator
    resolves in the module's top-level scope."""

    def __init__(self, module: str):
        self.module = module

    def equation(self, patterns, locals_, rhs: Expr, scope: tuple[str, ...]):
        """(matcher, body): the body runs where the patterns' variables,
        then the where-locals, follow scope's slots."""
        matcher = self.patterns(patterns)
        for p in patterns:
            scope += pattern_vars(p)
        if not locals_:
            return matcher, self.expr(rhs, scope)
        scope += tuple(loc.name for loc in locals_)
        defs = tuple(
            _Fun(loc.name, len(loc.params), (self.equation(tuple(map(PVar, loc.params)), (), loc.rhs, scope),))
            if loc.params else self.expr(loc.rhs, scope)
            for loc in locals_
        )
        rest = self.expr(rhs, scope)

        def body(ev, env):
            cells = [[None, d, None] for d in defs]
            env = env + cells
            for cell in cells:
                if type(cell[1]) is _Fun:
                    cell[0], cell[1] = _Closure(cell[1], env), None
                else:
                    cell[2] = env
            return rest(ev, env)
        return matcher, body

    def expr(self, e: Expr, scope: tuple[str, ...]):
        match e:
            case Var(name, qualifier):
                slot = var_slot(e, scope)
                site = (self.module, qualifier, name) if slot is None else None

                def code(ev, env):
                    ev.stats.steps += 1
                    if ev.stats.steps > ev.limit:
                        raise ev._exhausted()
                    cell = env[slot] if site is None else ev.cells.get(site) or ev._site(site)
                    value = cell[0]
                    return value if value is not None else ev.force(cell)
            case IntLit(value) | StrLit(value):
                return _constant(value)
            case Builtin(name):
                return _constant(_Builtin(name))
            case ConApp(_, items) | Tuple(items):
                parts = tuple(self.expr(i, scope) for i in items)
                n, name = len(parts), getattr(e, "name", None)
                first, second = (parts + (None, None))[:2]

                def code(ev, env):
                    ev.stats.steps += 1
                    if ev.stats.steps > ev.limit:
                        raise ev._exhausted()
                    cells = ([None, first, env],) if n == 1 else ([None, first, env], [None, second, env]) \
                        if n == 2 else tuple([[None, p, env] for p in parts])
                    return _WTuple(cells) if name is None else _WCon(name, cells)
            case Infix(op, lhs, rhs):
                left, right = self.expr(lhs, scope), self.expr(rhs, scope)
                kind, times = (str if op == "++" else int), op == "*"

                def code(ev, env):
                    ev.stats.steps += 1
                    if ev.stats.steps > ev.limit:
                        raise ev._exhausted()
                    a = left(ev, env)
                    while type(a) is tuple:
                        a = a[0](ev, a[1])
                    b = right(ev, env)
                    while type(b) is tuple:
                        b = b[0](ev, b[1])
                    if type(a) is type(b) is kind:
                        return a * b if times else a + b
                    raise EvalError("EvalError", f"{op} expects {'text' if op == '++' else 'integers'} on both sides")
            case App(_, _):
                head, args = app_spine(e)
                fn, parts = self.expr(head, scope), tuple(self.expr(a, scope) for a in args)
                n, named, (first, second) = len(parts), isinstance(head, Var), (parts + (None,))[:2]
                slot = var_slot(head, scope) if named else None
                site = (self.module, head.qualifier, head.name) if named and slot is None else None

                def code(ev, env):
                    stats = ev.stats
                    if named and stats.steps + 2 <= ev.limit:
                        stats.steps += 2  # the ticks of the App node and its head
                        cell = env[slot] if site is None else ev.cells.get(site) or ev._site(site)
                        f = cell[0] if cell[0] is not None else ev.force(cell)
                    else:
                        stats.steps += 1
                        if stats.steps > ev.limit:
                            raise ev._exhausted()
                        f = ev._run(fn, env)
                    # a display, not a comprehension, which would run in a frame of its own
                    cells = [[None, first, env]] if n == 1 else [[None, first, env], [None, second, env]] \
                        if n == 2 else [[None, p, env] for p in parts]
                    if type(f) is _Closure and len(f.args) + n == f.fun.arity:
                        stats.steps += 1  # a saturated call: one application round
                        if stats.steps > ev.limit:
                            raise ev._exhausted()
                        return ev._select(f.fun, f.env, f.args + tuple(cells) if f.args else cells)
                    return ev._apply(f, cells)
            case Case(scrutinee, branches):
                scrut = self.expr(scrutinee, scope)
                arms = tuple(
                    (self.pattern(b.pattern), self.expr(b.body, scope + pattern_vars(b.pattern)))
                    for b in branches
                )
                _, table, other = _dispatch([(b.pattern,) for b in branches], arms) or (None, None, ())

                def code(ev, env):
                    ev.stats.steps += 1
                    if ev.stats.steps > ev.limit:
                        raise ev._exhausted()
                    cell, candidates = [None, scrut, env], arms
                    if table is not None:
                        v = ev.force(cell)
                        if type(v) is _WCon:
                            candidates = table.get(v.name, other)
                    for match, body in candidates:
                        out = env.copy()
                        if match(ev, cell, out):
                            return body, out
                    raise EvalError("PatternMatchFailure", f"no case branch matches in module {self.module}")
            case Let(bindings, body):
                scope += tuple(b.name for b in bindings)
                rhss, rest = tuple(self.expr(b.rhs, scope) for b in bindings), self.expr(body, scope)

                def code(ev, env):
                    ev.stats.steps += 1
                    if ev.stats.steps > ev.limit:
                        raise ev._exhausted()
                    cells = [[None, rhs, None] for rhs in rhss]
                    env = env + cells
                    for cell in cells:
                        cell[2] = env
                    return rest, env
            case _:
                raise EvalError("EvalError", f"cannot evaluate {e!r}")
        return code

    def patterns(self, ps: tuple[Pattern, ...]):
        """A matcher match(ev, cells, out) of a call's arguments, or of fields,
        against ps: all variables only bind; one refutable column is tested alone."""
        n = len(ps)
        refutable = [i for i, p in enumerate(ps) if not isinstance(p, PVar)]
        if not refutable:
            def match(ev, cells, out):
                if len(cells) != n:
                    return False
                out += cells
                return True
        elif len(refutable) == 1:
            j = refutable[0]
            test = self.pattern(ps[j])

            def match(ev, cells, out):
                if len(cells) != n:
                    return False
                out += cells[:j]
                if not test(ev, cells[j], out):
                    return False
                out += cells[j + 1:]
                return True
        else:
            tests = tuple(map(self.pattern, ps))

            def match(ev, cells, out):
                if len(cells) != n:
                    return False
                for test, cell in zip(tests, cells):
                    if not test(ev, cell, out):
                        return False
                return True
        return match

    def pattern(self, p: Pattern):
        """A matcher match(ev, cell, out) of one cell against p."""
        match p:
            case PWild():
                return _wild
            case PVar(_):
                return _bind
            case PInt(n):
                def match(ev, cell, out):
                    v = cell[0] if cell[0] is not None else ev.force(cell)
                    return type(v) is int and v == n
            case PTuple(items):
                subs = self.patterns(items)

                def match(ev, cell, out):
                    v = cell[0] if cell[0] is not None else ev.force(cell)
                    return type(v) is _WTuple and subs(ev, v.items, out)
            case PCon(name, args, tupled):
                subs = self.patterns(args)

                def match(ev, cell, out):
                    v = cell[0] if cell[0] is not None else ev.force(cell)
                    if type(v) is not _WCon or v.name != name:
                        return False
                    fields = v.args
                    if tupled:
                        if len(fields) != 1:
                            return False
                        inner = fields[0][0] if fields[0][0] is not None else ev.force(fields[0])
                        if type(inner) is not _WTuple:
                            return False
                        fields = inner.items
                    return subs(ev, fields, out)
            case _:
                raise EvalError("EvalError", f"bad pattern {p!r}")
        return match


def evaluate(project: Project, module: str, expr: Expr, budget: int = DEFAULT_BUDGET) -> Value:
    """Evaluate an expression in the scope of a module, deeply forced."""
    ev = Evaluator(project, budget)
    return ev.deep(ev.eval_expr(expr, {}, module))


def _entry_modules(project: Project, entries) -> dict[str, list[str]]:
    """Each entry -> the modules that bind it with no arguments, in name
    order: one pass over the modules serves every entry. The result is kept
    on the project's state (ProjectState.found); a state derived from one
    that found the same entries reads only the modules changed since, and
    none when no module changed. Some of the entries last found are looked
    up as all of them, so that the state stays keyed by every entry."""
    state, entries = project_state(project), tuple(entries)
    if state.found and set(entries) <= set(state.found[0]):
        entries = state.found[0]
        if not state.found[2]:  # no module changed since they were found
            return state.found[1]
    _, was, todo = state.found if state.found and state.found[0] == entries else ((), {}, project.modules)
    hits = {entry: [m for m in was.get(entry, ()) if m not in todo] for entry in entries}
    for mname in sorted(todo):
        index = decl_index(project.modules[mname])
        for entry in hits.keys() & index.keys():
            if isinstance(d := index[entry], FunDecl) and d.arity == 0:
                hits[entry].append(mname)
                hits[entry].sort()
    state.found = (entries, hits, frozenset())
    return hits


def observe_entries(
    project: Project,
    entries: list[str] | tuple[str, ...],
    budget: int = DEFAULT_BUDGET,
    stats: EvalStats | None = None,
) -> dict[str, str]:
    """Force each zero-argument entry, in order, on one evaluator's heap;
    printed text for outputs, shown form otherwise. Each entry may perform
    budget reductions of its own: a cell an earlier entry forced is not
    counted again. The call's counts are added to stats when given."""
    out: dict[str, str] = {}
    ev, homes = None, _entry_modules(project, entries)
    try:
        for entry in entries:
            hits = homes[entry]
            if not hits:
                raise EvalError("UnresolvedName", f"no zero-argument binding {entry} in the project")
            if len(hits) > 1:
                raise EvalError("UnresolvedName", f"entry {entry} is defined in several modules: {hits}")
            mname = hits[0]
            ev = ev or Evaluator(project, budget)
            ev.limit = ev.stats.steps + budget
            value = ev.deep(ev.eval_expr(Var(entry, mname), {}, mname))
            out[entry] = value.text if isinstance(value, VOutput) else show_value(value)
    finally:
        if stats is not None and ev is not None:
            stats.steps += ev.stats.steps
            stats.forcings += ev.stats.forcings
    return out


def observational_eq(
    project_a: Project,
    project_b: Project,
    entries: list[str] | tuple[str, ...],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff both projects produce identical observation text per entry."""
    try:
        obs_a = observe_entries(project_a, entries, budget)
    except (EvalError, ResolveError) as exc:
        raise EvalError("EvalError", f"first project: {exc}") from exc
    try:
        obs_b = observe_entries(project_b, entries, budget)
    except (EvalError, ResolveError) as exc:
        raise EvalError("EvalError", f"second project: {exc}") from exc
    return obs_a == obs_b


def default_entries(project: Project, module: str = "Client") -> list[str]:
    """Zero-argument bindings of the Client module whose names start with r."""
    mod = project.modules.get(module)
    decls = mod.decls if mod is not None else ()
    return [d.name for d in decls if isinstance(d, FunDecl) and d.arity == 0 and d.name.startswith("r")]
