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
by that name: a step recompiles only the declarations it changes.

Names resolve per `Evaluator`, against its project, when a site is first
evaluated; the evaluator keeps the cell each site denotes and creates a
binding's cell on its first lookup. A name that does not resolve raises the
project's ResolveError when it is evaluated, and not before. An observation
(`observe_entries`) is one `Evaluator`: its entries share the heap, so a
top-level cell one entry forced is not evaluated again for the next.

Code in tail position (a case or let body, the body of a saturated call) is
not called but returned as a `(code, env)` pair to the trampoline (`_run`,
`force`), so runaway recursion meets the step budget instead of the host
stack. Every expression node ticks once when entered, and so does each
application round and each node of deep forcing: the reduction count is that
of a tree walk over the same expressions. A call whose head is a variable
adds the ticks of the call and its head at once, only while both fit the
budget, and a saturated call skips the general application loop. The budget
is per entry: the ticks test the evaluator's `limit`, which an observation
moves to the count so far plus the budget before each entry, so an entry may
perform budget reductions of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import (
    App, Builtin, Case, ConApp, Expr, FunDecl, Infix, IntLit, Let, PCon, PInt,
    PTuple, PVar, PWild, Pattern, Project, StrLit, Tuple, Var, app_spine,
    pattern_vars, var_slot,
)
from .resolver import (
    SymbolTable, build_symbol_table, decl_index, resolve_var, ResolveError,
)

DEFAULT_BUDGET = 10**6


class EvalError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# --- public (deeply forced) values ---

class Value:
    pass


@dataclass(frozen=True)
class VInt(Value):
    value: int


@dataclass(frozen=True)
class VStr(Value):
    value: str


@dataclass(frozen=True)
class VCon(Value):
    name: str
    args: tuple[Value, ...]


@dataclass(frozen=True)
class VTuple(Value):
    items: tuple[Value, ...]


@dataclass(frozen=True)
class VOutput(Value):
    text: str


@dataclass(frozen=True)
class VClosure(Value):
    """A partially applied function; opaque under deep forcing."""
    name: str
    missing: int


def show_value(v: Value) -> str:
    match v:
        case VInt(n):
            return str(n)
        case VStr(s):
            out = s.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{out}"'
        case VOutput(text):
            return text
        case VCon(name, args):
            if not args:
                return name
            parts = [name]
            for a in args:
                s = show_value(a)
                if isinstance(a, VCon) and a.args:
                    s = f"({s})"
                parts.append(s)
            return " ".join(parts)
        case VTuple(items):
            return "(" + ", ".join(show_value(i) for i in items) + ")"
        case VClosure(name, _):
            return f"<{name}>"
    raise TypeError(v)


# --- machine internals ---

class _Cell:
    __slots__ = ("thunk", "value", "forcing")

    def __init__(self, thunk=None, value=None):
        self.thunk = thunk  # (code, env) | None
        self.value = value  # whnf value | None
        self.forcing = False


@dataclass(frozen=True)
class _Fun:
    """A compiled function: per equation, its matchers and its body code."""
    name: str
    arity: int
    equations: tuple[tuple[tuple | int, object], ...]


@dataclass(slots=True)
class _Closure:
    """Function value: compiled function, captured environment, argument cells so far."""
    fun: _Fun
    env: list
    args: tuple[_Cell, ...] = ()


@dataclass(slots=True)
class _WCon:
    name: str
    args: tuple[_Cell, ...]


@dataclass(slots=True)
class _WTuple:
    items: tuple[_Cell, ...]


@dataclass(frozen=True)
class _Builtin:
    name: str


@dataclass(slots=True)
class EvalStats:
    steps: int = 0
    forcings: int = 0  # thunks entered (memoized afterwards)


class Evaluator:
    def __init__(self, project: Project, budget: int = DEFAULT_BUDGET):
        self.project = project
        self.budget = budget
        self.limit = budget  # the step count the budget ends at; see observe_entries
        self.stats = EvalStats()
        self.table: SymbolTable = build_symbol_table(project)
        # global site -> the cell it denotes; a binding's own cell is kept
        # under its self-qualified site (module, module, name)
        self.cells: dict[tuple[str, str | None, str], _Cell] = {}

    def _site(self, site: tuple[str, str | None, str]) -> _Cell:
        """Resolve a global site in this project, on its first use; a
        binding's cell is created on its first lookup."""
        module, qualifier, name = site
        ref = resolve_var(self.table, self.project, module, frozenset(), Var(name, qualifier))
        own = (ref.module, ref.module, ref.name)
        cell = self.cells.get(own)
        if cell is None:
            d = decl_index(self.project.modules[ref.module]).get(ref.name)
            if not isinstance(d, FunDecl):
                raise EvalError("UnresolvedName", f"{ref.module}.{ref.name} is not a value binding")
            compiled = d.__dict__.setdefault("_code", {})  # per module name
            fun = compiled.get(ref.module) or compiled.setdefault(ref.module, _compile_decl(ref.module, d))
            cell = _Cell(value=_Closure(fun, [])) if fun.arity else _Cell(thunk=(fun.equations[0][1], []))
        self.cells[own] = self.cells[site] = cell
        return cell

    def _exhausted(self) -> EvalError:
        return EvalError("StepBudgetExceeded", f"reduction budget of {self.budget} steps exceeded")

    def _tick(self):
        self.stats.steps += 1
        if self.stats.steps > self.limit:
            raise self._exhausted()

    def force(self, cell: _Cell):
        """The value of cell, running its thunk on the trampoline once."""
        value = cell.value
        if value is not None:
            return value
        if cell.forcing:
            raise EvalError("CyclicEvaluation", "value depends on itself")
        cell.forcing = True
        self.stats.forcings += 1
        code, env = cell.thunk
        value = code(self, env)
        while type(value) is tuple:
            code, env = value
            value = code(self, env)
        cell.value = value
        cell.thunk = None
        cell.forcing = False
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

    def _apply(self, fn, cells: list[_Cell]):
        """Apply cells to fn; returns a value or a tail for the trampoline."""
        while cells:
            self._tick()
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

    def _select(self, fun: _Fun, env: list, args: tuple[_Cell, ...]):
        """The body of the first equation whose patterns match args, with
        the environment it runs in."""
        for matchers, body in fun.equations:
            out: list[_Cell] = []
            if _match_all(self, matchers, args, out):
                return body, env + out
        raise EvalError("PatternMatchFailure", f"no equation of {fun.name} matches its arguments")

    # -- deep forcing to public values --

    def deep(self, v) -> Value:
        """Force v and every component, depth first, one tick per node. The
        walk keeps its own stack, so infinite data meets the step budget."""
        stack: list = []  # open containers, outermost first
        firsts: list[int] = []  # per open container, where its components start in done
        done: list = []  # observed values of the open containers' components
        while True:
            self._tick()
            if isinstance(v, (_WCon, _WTuple)):
                stack.append(v)
                firsts.append(len(done))
            elif isinstance(v, (VInt, VStr, VOutput)):
                done.append(v)
            elif isinstance(v, _Closure):
                done.append(VClosure(v.fun.name, v.fun.arity - len(v.args)))
            elif isinstance(v, _Builtin):
                done.append(VClosure(v.name, 1))
            else:
                raise EvalError("EvalError", f"cannot observe {v!r}")
            while stack:
                top, first = stack[-1], firsts[-1]
                cells = top.args if isinstance(top, _WCon) else top.items
                if len(done) - first < len(cells):
                    v = self.force(cells[len(done) - first])
                    break
                stack.pop()
                firsts.pop()
                parts = tuple(done[first:])
                del done[first:]
                done.append(VCon(top.name, parts) if isinstance(top, _WCon) else VTuple(parts))
            else:
                return done[0]


def _apply_builtin(name: str, v):
    if name == "show":
        if isinstance(v, VInt):
            return VStr(str(v.value))
        raise EvalError("EvalError", "show expects an integer")
    assert name == "print"
    if isinstance(v, VStr):
        return VOutput(v.value)
    raise EvalError("EvalError", "print expects text")


def _infix(op: str, a, b):
    if op == "++":
        if isinstance(a, VStr) and isinstance(b, VStr):
            return VStr(a.value + b.value)
        raise EvalError("EvalError", "++ expects text on both sides")
    if isinstance(a, VInt) and isinstance(b, VInt):
        return VInt(a.value + b.value if op == "+" else a.value * b.value)
    raise EvalError("EvalError", f"{op} expects integers on both sides")


# --- the compiler ---
#
# Variables, the hottest code, tick inline (stats.steps += 1, then the budget
# test); variables and matchers read a cell's value before calling force.

def _bind(ev, cell, out) -> bool:
    out.append(cell)
    return True


def _wild(ev, cell, out) -> bool:
    return True


def _constant(value):
    def code(ev, env):
        ev._tick()
        return value
    return code


def _match_all(ev, matchers, cells, out) -> bool:
    """Match cells against the matchers _Compiler.patterns compiled."""
    if type(matchers) is int:
        if matchers != len(cells):
            return False
        out += cells
        return True
    if len(matchers) != len(cells):
        return False
    for match, cell in zip(matchers, cells):
        if match is _bind:
            out.append(cell)
        elif not match(ev, cell, out):
            return False
    return True


def _compile_decl(module: str, d: FunDecl) -> _Fun:
    compiler = _Compiler(module)
    return _Fun(d.name, d.arity, tuple(
        compiler.equation(eq.patterns, eq.locals, eq.rhs, ()) for eq in d.equations
    ))


class _Compiler:
    """Compiles code of one module. A scope names the environment's slots in
    order; a variable denotes the last slot of its name (lang.var_slot), or
    else its global site (module, qualifier, name), which the evaluator
    resolves in the module's top-level scope."""

    def __init__(self, module: str):
        self.module = module

    def equation(self, patterns, locals_, rhs: Expr, scope: tuple[str, ...]):
        """(matchers, body): the body runs where the patterns' variables,
        then the where-locals, follow scope's slots."""
        matchers = self.patterns(patterns)
        for p in patterns:
            scope += pattern_vars(p)
        if not locals_:
            return matchers, self.expr(rhs, scope)
        scope += tuple(loc.name for loc in locals_)
        defs = tuple(
            _Fun(loc.name, len(loc.params), (self.equation(tuple(map(PVar, loc.params)), (), loc.rhs, scope),))
            if loc.params else self.expr(loc.rhs, scope)
            for loc in locals_
        )
        rest = self.expr(rhs, scope)

        def body(ev, env):
            cells = [_Cell() for _ in defs]
            env = env + cells
            for cell, d in zip(cells, defs):
                if isinstance(d, _Fun):
                    cell.value = _Closure(d, env)
                else:
                    cell.thunk = (d, env)
            return rest(ev, env)
        return matchers, body

    def expr(self, e: Expr, scope: tuple[str, ...]):
        match e:
            case Var(_, _) if (slot := var_slot(e, scope)) is not None:
                def code(ev, env):
                    stats = ev.stats
                    stats.steps += 1
                    if stats.steps > ev.limit:
                        raise ev._exhausted()
                    cell = env[slot]
                    value = cell.value
                    return value if value is not None else ev.force(cell)
            case Var(name, qualifier):
                site = (self.module, qualifier, name)

                def code(ev, env):
                    stats = ev.stats
                    stats.steps += 1
                    if stats.steps > ev.limit:
                        raise ev._exhausted()
                    cell = ev.cells.get(site) or ev._site(site)
                    value = cell.value
                    return value if value is not None else ev.force(cell)
            case IntLit(n):
                return _constant(VInt(n))
            case StrLit(s):
                return _constant(VStr(s))
            case Builtin(name):
                return _constant(_Builtin(name))
            case ConApp(name, args):
                parts = tuple(self.expr(a, scope) for a in args)

                def code(ev, env):
                    ev._tick()
                    return _WCon(name, tuple([_Cell((p, env)) for p in parts]))
            case Tuple(items):
                parts = tuple(self.expr(i, scope) for i in items)

                def code(ev, env):
                    ev._tick()
                    return _WTuple(tuple([_Cell((p, env)) for p in parts]))
            case Infix(op, lhs, rhs):
                left, right = self.expr(lhs, scope), self.expr(rhs, scope)

                def code(ev, env):
                    ev._tick()
                    return _infix(op, ev._run(left, env), ev._run(right, env))
            case App(_, _):
                head, args = app_spine(e)
                fn, parts = self.expr(head, scope), tuple(self.expr(a, scope) for a in args)
                n, named = len(parts), isinstance(head, Var)
                slot = var_slot(head, scope) if named else None
                site = (self.module, head.qualifier, head.name) if named and slot is None else None

                def code(ev, env):
                    stats = ev.stats
                    if named and stats.steps + 2 <= ev.limit:
                        stats.steps += 2  # the ticks of the App node and its head
                        cell = env[slot] if site is None else ev.cells.get(site) or ev._site(site)
                        f = cell.value if cell.value is not None else ev.force(cell)
                    else:
                        ev._tick()
                        f = ev._run(fn, env)
                    cells = [_Cell((p, env)) for p in parts]
                    if type(f) is _Closure and len(f.args) + n == f.fun.arity:
                        ev._tick()  # a saturated call: one application round
                        return ev._select(f.fun, f.env, f.args + tuple(cells))
                    return ev._apply(f, cells)
            case Case(scrutinee, branches):
                scrut = self.expr(scrutinee, scope)
                arms = tuple(
                    (self.pattern(b.pattern), self.expr(b.body, scope + pattern_vars(b.pattern)))
                    for b in branches
                )

                def code(ev, env):
                    ev._tick()
                    cell = _Cell((scrut, env))
                    for match, body in arms:
                        out: list[_Cell] = []
                        if match(ev, cell, out):
                            return body, env + out
                    raise EvalError("PatternMatchFailure", f"no case branch matches in module {self.module}")
            case Let(bindings, body):
                scope += tuple(b.name for b in bindings)
                rhss, rest = tuple(self.expr(b.rhs, scope) for b in bindings), self.expr(body, scope)

                def code(ev, env):
                    ev._tick()
                    cells = [_Cell() for _ in rhss]
                    env = env + cells
                    for cell, rhs in zip(cells, rhss):
                        cell.thunk = (rhs, env)
                    return rest, env
            case _:
                raise EvalError("EvalError", f"cannot evaluate {e!r}")
        return code

    def patterns(self, ps: tuple[Pattern, ...]):
        """Matchers of ps in order, or their number when every one is a
        variable and matching only binds."""
        if all(isinstance(p, PVar) for p in ps):
            return len(ps)
        return tuple(self.pattern(p) for p in ps)

    def pattern(self, p: Pattern):
        match p:
            case PWild():
                return _wild
            case PVar(_):
                return _bind
            case PInt(n):
                def match(ev, cell, out):
                    v = cell.value if cell.value is not None else ev.force(cell)
                    return isinstance(v, VInt) and v.value == n
            case PTuple(items):
                subs = self.patterns(items)

                def match(ev, cell, out):
                    v = cell.value if cell.value is not None else ev.force(cell)
                    return isinstance(v, _WTuple) and _match_all(ev, subs, v.items, out)
            case PCon(name, args, tupled):
                subs = self.patterns(args)

                def match(ev, cell, out):
                    v = cell.value if cell.value is not None else ev.force(cell)
                    if not isinstance(v, _WCon) or v.name != name:
                        return False
                    if not tupled:
                        return _match_all(ev, subs, v.args, out)
                    if len(v.args) != 1:
                        return False
                    inner = ev.force(v.args[0])
                    return isinstance(inner, _WTuple) and _match_all(ev, subs, inner.items, out)
            case _:
                raise EvalError("EvalError", f"bad pattern {p!r}")
        return match


def evaluate(project: Project, module: str, expr: Expr, budget: int = DEFAULT_BUDGET) -> Value:
    """Evaluate an expression in the scope of a module, deeply forced."""
    ev = Evaluator(project, budget)
    return ev.deep(ev.eval_expr(expr, {}, module))


def _entry_modules(project: Project, entries) -> dict[str, list[str]]:
    """Each entry -> the modules that bind it with no arguments, in name
    order: one pass over the modules serves every entry."""
    hits: dict[str, list[str]] = {entry: [] for entry in entries}
    for mname in sorted(project.modules):
        index = decl_index(project.modules[mname])
        for entry in hits.keys() & index.keys():
            if isinstance(d := index[entry], FunDecl) and d.arity == 0:
                hits[entry].append(mname)
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
            value = ev.deep(ev.eval_expr(Var(entry), {}, mname))
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
