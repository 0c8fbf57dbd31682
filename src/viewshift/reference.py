"""Call-by-name reference evaluator.

Deliberately naive: no heap, no memoization — a variable's thunk is
re-evaluated at every use. For the pure object language this must agree
observationally with the call-by-need machine, which is exactly the
cross-check the test suite runs. Kept structurally separate from
evaluator.py so the two implementations stay independent.
"""

from __future__ import annotations

from .evaluator import (
    DEFAULT_BUDGET, EvalError, VCon, VInt, VOutput, VStr, VTuple, Value,
    show_value,
)
from .lang import (
    App, Builtin, Case, ConApp, Equation, Expr, FunDecl, Infix, IntLit, Let,
    LocalDef, PCon, PInt, PTuple, PVar, PWild, Pattern, Project, StrLit,
    Tuple, Var, app_spine, record,
)
from .resolver import build_symbol_table, resolve_var


@record
class _Thunk:
    expr: Expr
    env: object  # _Env
    module: str


@record
class _Env:
    frame: dict
    parent: object = None

    def get(self, name):
        env = self
        while env is not None:
            if name in env.frame:
                return env.frame[name]
            env = env.parent
        return None


class _NFun:
    def __init__(self, name: str, module: str, equations: tuple[Equation, ...], env: _Env,
                 args: tuple[_Thunk, ...] = ()):
        self.name, self.module, self.equations, self.env, self.args = name, module, equations, env, args


@record
class _NCon:
    name: str
    args: tuple[_Thunk, ...]


@record
class _NTuple:
    items: tuple[_Thunk, ...]


@record
class _NBuiltin:
    name: str


class ByNameEvaluator:
    def __init__(self, project: Project, budget: int = DEFAULT_BUDGET):
        self.project = project
        self.budget = budget
        self.steps = 0
        self.uses = 0  # variable forcings; grows with every re-use
        self.table = build_symbol_table(project)

    def _tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise EvalError("StepBudgetExceeded", f"reduction budget of {self.budget} steps exceeded")

    def _global(self, module: str, name: str):
        mod = self.project.modules[module]
        d = mod.decl(name)
        assert isinstance(d, FunDecl)
        if d.arity > 0:
            return _NFun(name, module, d.equations, _Env({}))
        eq = d.equations[0]
        env = self._with_locals(eq.locals, _Env({}), module)
        return self.whnf(eq.rhs, env, module)

    def _with_locals(self, locals_: tuple[LocalDef, ...], env: _Env, module: str) -> _Env:
        if not locals_:
            return env
        frame: dict = {}
        new_env = _Env(frame, env)
        for loc in locals_:
            if loc.params:
                eq = Equation(tuple(PVar(p) for p in loc.params), loc.rhs)
                frame[loc.name] = _NFun(loc.name, module, (eq,), new_env)
            else:
                frame[loc.name] = _Thunk(loc.rhs, new_env, module)
        return new_env

    def whnf(self, e: Expr, env: _Env, module: str):
        self._tick()
        match e:
            case Var(name, qualifier):
                if qualifier is None:
                    hit = env.get(name)
                    if hit is not None:
                        self.uses += 1
                        if isinstance(hit, _Thunk):
                            return self.whnf(hit.expr, hit.env, hit.module)
                        return hit
                ref = resolve_var(self.table, self.project, module, frozenset(), e)
                assert ref is not None
                return self._global(ref.module, ref.name)
            case IntLit(n):
                return VInt(n)
            case StrLit(s):
                return VStr(s)
            case Builtin(name):
                return _NBuiltin(name)
            case ConApp(name, args):
                return _NCon(name, tuple(_Thunk(a, env, module) for a in args))
            case Tuple(items):
                return _NTuple(tuple(_Thunk(i, env, module) for i in items))
            case Infix(op, lhs, rhs):
                a = self.whnf(lhs, env, module)
                b = self.whnf(rhs, env, module)
                if op == "++":
                    if isinstance(a, VStr) and isinstance(b, VStr):
                        return VStr(a.value + b.value)
                    raise EvalError("EvalError", "++ expects text")
                if isinstance(a, VInt) and isinstance(b, VInt):
                    return VInt(a.value + b.value if op == "+" else a.value * b.value)
                raise EvalError("EvalError", f"{op} expects integers")
            case App(_, _):
                head, args = app_spine(e)
                fn = self.whnf(head, env, module)
                return self._apply(fn, [_Thunk(a, env, module) for a in args])
            case Case(scrutinee, branches):
                scrut = _Thunk(scrutinee, env, module)
                for b in branches:
                    frame: dict = {}
                    if self._match(b.pattern, scrut, frame):
                        return self.whnf(b.body, _Env(frame, env), module)
                raise EvalError("PatternMatchFailure", f"no case branch matches in module {module}")
            case Let(bindings, body):
                frame = {}
                new_env = _Env(frame, env)
                for b in bindings:
                    frame[b.name] = _Thunk(b.rhs, new_env, module)
                return self.whnf(body, new_env, module)
        raise EvalError("EvalError", f"cannot evaluate {e!r}")

    def _apply(self, fn, thunks: list[_Thunk]):
        while thunks:
            self._tick()
            if isinstance(fn, _NBuiltin):
                fn = self._builtin(fn.name, thunks.pop(0))
                continue
            if not isinstance(fn, _NFun):
                raise EvalError("EvalError", "applied a non-function value")
            take = len(fn.equations[0].patterns) - len(fn.args)
            new_args = fn.args + tuple(thunks[:take])
            thunks = thunks[take:]
            if len(new_args) < len(fn.equations[0].patterns):
                return _NFun(fn.name, fn.module, fn.equations, fn.env, new_args)
            fn = self._enter(fn, new_args)
        return fn

    def _builtin(self, name: str, thunk: _Thunk):
        v = self._force_thunk(thunk)
        if name == "show":
            if isinstance(v, VInt):
                return VStr(str(v.value))
            raise EvalError("EvalError", "show expects an integer")
        if isinstance(v, VStr):
            return VOutput(v.value)
        raise EvalError("EvalError", "print expects text")

    def _force_thunk(self, t: _Thunk):
        return self.whnf(t.expr, t.env, t.module)

    def _enter(self, fn: _NFun, args: tuple[_Thunk, ...]):
        for eq in fn.equations:
            frame: dict = {}
            if all(self._match(p, a, frame) for p, a in zip(eq.patterns, args)):
                env = _Env(frame, fn.env)
                env = self._with_locals(eq.locals, env, fn.module)
                return self.whnf(eq.rhs, env, fn.module)
        raise EvalError("PatternMatchFailure", f"no equation of {fn.name} matches")

    def _match(self, p: Pattern, thunk: _Thunk, frame: dict) -> bool:
        match p:
            case PWild():
                return True
            case PVar(name):
                frame[name] = thunk
                return True
            case PInt(n):
                v = self._force_thunk(thunk)
                return isinstance(v, VInt) and v.value == n
            case PTuple(items):
                v = self._force_thunk(thunk)
                if not isinstance(v, _NTuple) or len(v.items) != len(items):
                    return False
                return all(self._match(q, t, frame) for q, t in zip(items, v.items))
            case PCon(name, args, tupled):
                v = self._force_thunk(thunk)
                if not isinstance(v, _NCon) or v.name != name:
                    return False
                if tupled:
                    if len(v.args) != 1:
                        return False
                    inner = self._force_thunk(v.args[0])
                    if not isinstance(inner, _NTuple) or len(inner.items) != len(args):
                        return False
                    return all(self._match(q, t, frame) for q, t in zip(args, inner.items))
                if len(v.args) != len(args):
                    return False
                return all(self._match(q, t, frame) for q, t in zip(args, v.args))
        raise EvalError("EvalError", f"bad pattern {p!r}")

    def deep(self, v) -> Value:
        """Observe v depth first, one tick per node. Open nodes wait on an
        explicit stack with their components observed so far, so infinite
        data meets the step budget, not the host stack."""
        stack: list[tuple[object, list[Value]]] = []
        while True:
            self._tick()
            observed = None
            if isinstance(v, (_NCon, _NTuple)):
                stack.append((v, []))
            elif isinstance(v, (VInt, VStr, VOutput)):
                observed = v
            else:
                raise EvalError("EvalError", f"cannot observe {v!r}")
            while stack:
                node, parts = stack[-1]
                if observed is not None:
                    parts.append(observed)
                thunks = node.args if isinstance(node, _NCon) else node.items
                if len(parts) < len(thunks):
                    v = self._force_thunk(thunks[len(parts)])
                    break
                stack.pop()
                observed = VCon(node.name, tuple(parts)) if isinstance(node, _NCon) else VTuple(tuple(parts))
            else:
                return observed


def evaluate_by_name(project: Project, module: str, expr: Expr, budget: int = DEFAULT_BUDGET) -> Value:
    ev = ByNameEvaluator(project, budget)
    return ev.deep(ev.whnf(expr, _Env({}), module))


def observe_entries_by_name(
    project: Project, entries, budget: int = DEFAULT_BUDGET
) -> dict[str, str]:
    out: dict[str, str] = {}
    for entry in entries:
        hits = [m for m, mod in sorted(project.modules.items()) if any(
            isinstance(d, FunDecl) and d.name == entry and d.arity == 0 for d in mod.decls)]
        if len(hits) != 1:
            many = f"entry {entry} is defined in several modules: {hits}"
            raise EvalError("UnresolvedName", many if hits else f"no zero-argument binding {entry} in the project")
        mname = hits[0]
        value = evaluate_by_name(project, mname, Var(entry, mname), budget)
        out[entry] = value.text if isinstance(value, VOutput) else show_value(value)
    return out
