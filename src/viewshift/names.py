"""Name-level utilities: free variables, capture-avoiding substitution,
alpha-equivalence and fresh-name generation."""

from __future__ import annotations

from .lang import (
    App, Builtin, Case, CaseBranch, ConApp, DataDecl, Expr, FunDecl, Infix,
    IntLit, Let, LetBinding, PCon, PInt, PTuple, PVar, PWild, Pattern, Project,
    StrLit, TopDecl, Tuple, Var, decl_expr_roots, decl_name, expr_children,
    pattern_vars, walk_expr_scoped, with_expr_children,
)


def fresh_name(base: str, avoid: set[str]) -> str:
    """First of <base>_gen, <base>_gen_1, <base>_gen_2, ... not in avoid."""
    candidate = f"{base}_gen"
    if candidate not in avoid:
        return candidate
    i = 1
    while f"{base}_gen_{i}" in avoid:
        i += 1
    return f"{base}_gen_{i}"


def free_vars(e: Expr, include_qualified: bool = False) -> set[str]:
    """Variables not bound within the expression (unqualified by default)."""
    return {
        v.name
        for _, v, bound in walk_expr_scoped(e, frozenset())
        if isinstance(v, Var) and v.name not in bound
        and (v.qualifier is None or include_qualified)
    }


def decl_free_vars(d: TopDecl) -> set[str]:
    """Free variables of a declaration, the declared name excluded."""
    out: set[str] = set()
    for _, _, root, bound in decl_expr_roots(d):
        out |= free_vars(root) - bound
    out.discard(decl_name(d))
    return out


def all_names(e: Expr) -> set[str]:
    """Every identifier appearing in the expression, bound or free."""
    out: set[str] = set()
    match e:
        case Var(name, _):
            out.add(name)
        case Case(scrutinee, branches):
            out |= all_names(scrutinee)
            for b in branches:
                out.update(pattern_vars(b.pattern))
                out |= all_names(b.body)
        case Let(bindings, body):
            for b in bindings:
                out.add(b.name)
                out |= all_names(b.rhs)
            out |= all_names(body)
        case _:
            for kid in expr_children(e):
                out |= all_names(kid)
    return out


def _rename_pattern(p: Pattern, old: str, new: str) -> Pattern:
    match p:
        case PVar(name) if name == old:
            return PVar(new)
        case PCon(name, args, tupled):
            return PCon(name, tuple(_rename_pattern(a, old, new) for a in args), tupled)
        case PTuple(items):
            return PTuple(tuple(_rename_pattern(i, old, new) for i in items))
        case _:
            return p


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution of unqualified occurrences of name."""
    return substitute_many(e, {name: replacement})


def substitute_many(e: Expr, mapping: dict[str, Expr]) -> Expr:
    if not mapping:
        return e
    repl_free: set[str] = set()
    for r in mapping.values():
        repl_free |= free_vars(r)

    def go(e: Expr, mapping: dict[str, Expr]) -> Expr:
        if not mapping:
            return e
        match e:
            case Var(name, qualifier):
                if qualifier is None and name in mapping:
                    return mapping[name]
                return e
            case Case(scrutinee, branches):
                new_branches = []
                for b in branches:
                    pvars = set(pattern_vars(b.pattern))
                    inner = {k: v for k, v in mapping.items() if k not in pvars}
                    pat, body = b.pattern, b.body
                    clashing = [v for v in pattern_vars(pat) if v in repl_free and inner]
                    for v in clashing:
                        avoid = repl_free | all_names(body) | set(pattern_vars(pat)) | set(inner)
                        fresh = fresh_name(v, avoid)
                        pat = _rename_pattern(pat, v, fresh)
                        body = go(body, {v: Var(fresh)})
                    new_branches.append(CaseBranch(pat, go(body, inner)))
                return Case(go(scrutinee, mapping), tuple(new_branches))
            case Let(bindings, body):
                bound = {b.name for b in bindings}
                inner = {k: v for k, v in mapping.items() if k not in bound}
                names = [b.name for b in bindings]
                rhss = [b.rhs for b in bindings]
                if inner:
                    for i, n in enumerate(list(names)):
                        if n in repl_free:
                            avoid = repl_free | all_names(body) | set(names) | set(inner)
                            for r in rhss:
                                avoid |= all_names(r)
                            fresh = fresh_name(n, avoid)
                            ren = {n: Var(fresh)}
                            names[i] = fresh
                            rhss = [go(r, ren) for r in rhss]
                            body = go(body, ren)
                new_bindings = tuple(
                    LetBinding(n, go(r, inner)) for n, r in zip(names, rhss)
                )
                return Let(new_bindings, go(body, inner))
            case _:
                kids = expr_children(e)
                if not kids:
                    return e
                return with_expr_children(e, tuple(go(k, mapping) for k in kids))

    return go(e, dict(mapping))


# --- alpha-equivalence ---

class _AlphaEnv:
    """Positional correspondence of binders on both sides."""

    def __init__(self):
        self.left: dict[str, int] = {}
        self.right: dict[str, int] = {}
        self.depth = 0

    def child(self, lefts: list[str], rights: list[str]) -> "_AlphaEnv":
        env = _AlphaEnv()
        env.left = dict(self.left)
        env.right = dict(self.right)
        env.depth = self.depth
        for l, r in zip(lefts, rights):
            env.left[l] = env.depth
            env.right[r] = env.depth
            env.depth += 1
        return env


def _alpha_pattern(p: Pattern, q: Pattern) -> bool:
    """Structural match of patterns ignoring variable names."""
    match p, q:
        case PVar(_), PVar(_):
            return True
        case PWild(), PWild():
            return True
        case PInt(a), PInt(b):
            return a == b
        case PCon(n1, a1, t1), PCon(n2, a2, t2):
            return (
                n1 == n2 and t1 == t2 and len(a1) == len(a2)
                and all(_alpha_pattern(x, y) for x, y in zip(a1, a2))
            )
        case PTuple(a1), PTuple(a2):
            return len(a1) == len(a2) and all(
                _alpha_pattern(x, y) for x, y in zip(a1, a2)
            )
        case _:
            return False


def alpha_eq_expr(a: Expr, b: Expr, env: _AlphaEnv | None = None) -> bool:
    env = env or _AlphaEnv()
    match a, b:
        case Var(n1, q1), Var(n2, q2):
            # A qualifier always targets a top-level name, never a binder.
            l = env.left.get(n1) if q1 is None else None
            r = env.right.get(n2) if q2 is None else None
            if l is not None or r is not None:
                return l == r
            return n1 == n2 and q1 == q2
        case Builtin(n1), Builtin(n2):
            return n1 == n2
        case IntLit(v1), IntLit(v2):
            return v1 == v2
        case StrLit(v1), StrLit(v2):
            return v1 == v2
        case ConApp(n1, a1), ConApp(n2, a2):
            return n1 == n2 and len(a1) == len(a2) and all(
                alpha_eq_expr(x, y, env) for x, y in zip(a1, a2)
            )
        case App(f1, x1), App(f2, x2):
            return alpha_eq_expr(f1, f2, env) and alpha_eq_expr(x1, x2, env)
        case Infix(o1, l1, r1), Infix(o2, l2, r2):
            return o1 == o2 and alpha_eq_expr(l1, l2, env) and alpha_eq_expr(r1, r2, env)
        case Tuple(i1), Tuple(i2):
            return len(i1) == len(i2) and all(
                alpha_eq_expr(x, y, env) for x, y in zip(i1, i2)
            )
        case Case(s1, b1), Case(s2, b2):
            if len(b1) != len(b2) or not alpha_eq_expr(s1, s2, env):
                return False
            for x, y in zip(b1, b2):
                if not _alpha_pattern(x.pattern, y.pattern):
                    return False
                inner = env.child(list(pattern_vars(x.pattern)), list(pattern_vars(y.pattern)))
                if not alpha_eq_expr(x.body, y.body, inner):
                    return False
            return True
        case Let(bs1, bod1), Let(bs2, bod2):
            if len(bs1) != len(bs2):
                return False
            inner = env.child([b.name for b in bs1], [b.name for b in bs2])
            for x, y in zip(bs1, bs2):
                if not alpha_eq_expr(x.rhs, y.rhs, inner):
                    return False
            return alpha_eq_expr(bod1, bod2, inner)
        case _:
            return False


def alpha_eq_decl(a: TopDecl, b: TopDecl) -> bool:
    """True iff the declarations differ only in bound-variable names.

    The declared name itself binds (recursive references correspond), so
    fold1 and fold2 from the two transformation runs compare equal.
    Attached comments are metadata and are ignored.
    """
    if isinstance(a, DataDecl) or isinstance(b, DataDecl):
        if not (isinstance(a, DataDecl) and isinstance(b, DataDecl)):
            return False
        return a.name == b.name and a.constructors == b.constructors
    assert isinstance(a, FunDecl) and isinstance(b, FunDecl)
    if len(a.equations) != len(b.equations):
        return False
    base = _AlphaEnv().child([a.name], [b.name])
    for ea, eb in zip(a.equations, b.equations):
        if len(ea.patterns) != len(eb.patterns) or len(ea.locals) != len(eb.locals):
            return False
        for pa, pb in zip(ea.patterns, eb.patterns):
            if not _alpha_pattern(pa, pb):
                return False
        lefts: list[str] = []
        rights: list[str] = []
        for pa, pb in zip(ea.patterns, eb.patterns):
            lefts += list(pattern_vars(pa))
            rights += list(pattern_vars(pb))
        lefts += [loc.name for loc in ea.locals]
        rights += [loc.name for loc in eb.locals]
        env = base.child(lefts, rights)
        if not alpha_eq_expr(ea.rhs, eb.rhs, env):
            return False
        for la, lb in zip(ea.locals, eb.locals):
            if len(la.params) != len(lb.params):
                return False
            local_env = env.child(list(la.params), list(lb.params))
            if not alpha_eq_expr(la.rhs, lb.rhs, local_env):
                return False
    return True


def alpha_eq_project(a: Project, b: Project) -> bool:
    """Module-by-module alpha-equivalence.

    Declaration order, import order, attached comments and modules left with
    no declarations are all ignored; top-level names must match.
    """
    mods_a = {m: d for m, d in a.modules.items() if d.decls}
    mods_b = {m: d for m, d in b.modules.items() if d.decls}
    if set(mods_a) != set(mods_b):
        return False
    for name in mods_a:
        ma, mb = mods_a[name], mods_b[name]
        if set(ma.imports) != set(mb.imports):
            return False
        ex_a = None if ma.exports is None else set(ma.exports)
        ex_b = None if mb.exports is None else set(mb.exports)
        if ex_a != ex_b:
            return False
        decls_a = {decl_name(d): d for d in ma.decls}
        decls_b = {decl_name(d): d for d in mb.decls}
        if set(decls_a) != set(decls_b):
            return False
        for dname in decls_a:
            if not alpha_eq_decl(decls_a[dname], decls_b[dname]):
                return False
    return True
