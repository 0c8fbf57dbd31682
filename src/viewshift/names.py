"""Name-level utilities: free variables, capture-avoiding substitution,
alpha-equivalence and fresh-name generation."""

from __future__ import annotations

from collections.abc import Container
from itertools import count

from .lang import (
    Case, CaseBranch, DataDecl, Expr, FunDecl, Let, LetBinding, PCon, PTuple,
    PVar, Pattern, Project, TopDecl, Var, decl_expr_roots, decl_name,
    equation_scope, expr_children, paired_children, pattern_shape, pattern_vars,
    var_slot, walk_expr_scoped, with_expr_children,
)


def fresh_name(base: str, *avoid: Container[str]) -> str:
    """First of <base>_gen, <base>_gen_1, <base>_gen_2, ... in none of avoid."""
    candidates = (f"{base}_gen_{i}" if i else f"{base}_gen" for i in count())
    return next(c for c in candidates if not any(c in names for names in avoid))


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
    for _, node, bound in walk_expr_scoped(e, frozenset()):
        out |= bound
        if isinstance(node, Var):
            out.add(node.name)
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

def alpha_eq_expr(
    a: Expr, b: Expr, left: tuple[str, ...] = (), right: tuple[str, ...] = ()
) -> bool:
    """True iff a and b differ only in bound-variable names; left and right
    name the binders around a and b in binding order, and binders correspond
    by position."""
    stack = [(a, b, left, right)]
    while stack:
        a, b, left, right = stack.pop()
        if isinstance(a, Var):
            if not isinstance(b, Var):
                return False
            slot = var_slot(a, left)
            if slot != var_slot(b, right) or (slot is None and a != b):
                return False
            continue
        kids = paired_children(a, b)
        if kids is None:
            return False
        stack += [(x, y, left + nx, right + ny) for x, y, nx, ny in kids]
    return True


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
    roots = []
    for ea, eb in zip(a.equations, b.equations):
        if (
            tuple(map(pattern_shape, ea.patterns)) != tuple(map(pattern_shape, eb.patterns))
            or [len(loc.params) for loc in ea.locals] != [len(loc.params) for loc in eb.locals]
        ):
            return False
        left, right = (a.name,) + equation_scope(ea), (b.name,) + equation_scope(eb)
        roots.append((ea.rhs, eb.rhs, left, right))
        roots += [
            (la.rhs, lb.rhs, left + la.params, right + lb.params)
            for la, lb in zip(ea.locals, eb.locals)
        ]
    return all(alpha_eq_expr(*root) for root in roots)


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
