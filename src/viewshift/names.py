"""Name-level utilities: free variables, capture-avoiding substitution,
alpha-equivalence and fresh-name generation."""

from __future__ import annotations

from collections.abc import Callable, Container
from itertools import count
from typing import Optional

from .lang import (
    App, Case, ConApp, DataDecl, Expr, FunDecl, Infix, Let, Project, TopDecl, Tuple, Var,
    binder_children, decl_name, equation_scope, paired_children, pattern_shape, scoped_vars,
    var_slot, with_binder_children,
)


def fresh_name(base: str, *avoid: Container[str]) -> str:
    """First of <base>_gen, <base>_gen_1, <base>_gen_2, ... in none of avoid."""
    candidates = (f"{base}_gen_{i}" if i else f"{base}_gen" for i in count())
    return next(c for c in candidates if not any(c in names for names in avoid))


def free_vars(e: Expr) -> set[str]:
    """Unqualified variables not bound within the expression."""
    return {
        v.name for _, v, bound, _ in scoped_vars(e, frozenset())
        if v.qualifier is None and v.name not in bound
    }


def all_names(e: Expr) -> set[str]:
    """Every identifier appearing in the expression, bound or free."""
    out: set[str] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        kind = type(e)  # the node classes are final
        if kind is Var:
            out.add(e.name)
        elif kind is App or kind is Infix:
            stack += (e.fn, e.arg) if kind is App else (e.lhs, e.rhs)
        elif kind is ConApp or kind is Tuple:
            stack += e.args if kind is ConApp else e.items
        elif kind is Case or kind is Let:
            for kid, names in binder_children(e):
                out.update(names)
                stack.append(kid)
    return out


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution of unqualified occurrences of name."""
    return substitute_many(e, {name: replacement})


def substitute_many(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution. Where a binder
    (binder_children) would capture a free name of a replacement for a name
    that occurs free beneath it, the binder is renamed in the same pass: once
    for all the children it binds over, each name fresh for all of them."""
    if not mapping:
        return e
    repl_free: set[str] = set()
    for r in mapping.values():
        repl_free |= free_vars(r)

    def go(e: Expr, mapping: dict[str, Expr]) -> Expr:
        if not mapping:
            return e
        if isinstance(e, Var):
            return mapping[e.name] if e.qualifier is None and e.name in mapping else e
        kids = binder_children(e)
        if not kids:
            return e
        # Keyed by the names bound, so a let's binders are renamed once for all
        # its children; case branches binding the same names share fresh ones.
        renamed: dict[tuple[str, ...], tuple[str, ...]] = {(): ()}
        out = []
        for kid, names in kids:
            inner = {k: r for k, r in mapping.items() if k not in names} if names else mapping
            if names not in renamed:
                renamed[names] = names
                if inner and not repl_free.isdisjoint(names):
                    under = [k for k, ns in kids if ns == names]
                    used = inner.keys() & set().union(*map(free_vars, under))
                    clash = {n for k in used for n in free_vars(inner[k]) if n in names}
                    avoid = repl_free.union(inner, names, *map(all_names, under))
                    new: list[str] = []
                    for n in names:
                        new.append(fresh_name(n, avoid, new) if n in clash else n)
                    renamed[names] = tuple(new)
            ren = {n: Var(f) for n, f in zip(names, renamed[names]) if n != f}
            out.append((go(kid, {**inner, **ren} if ren else inner), renamed[names]))
        return with_binder_children(e, out)

    return go(e, dict(mapping))


# --- alpha-equivalence ---

# same_global(a, b, right): whether b, with the names right bound around it,
# matches a, a variable bound nowhere on its side (a global, or a hole)
GlobalEq = Optional[Callable[[Var, Expr, tuple[str, ...]], bool]]


def alpha_eq_expr(
    a: Expr, b: Expr, left: tuple[str, ...] = (), right: tuple[str, ...] = (),
    same_global: GlobalEq = None, unfold: Optional[Callable] = None,
) -> bool:
    """True iff a and b differ only in bound-variable names; left and right
    name the binders around a and b in binding order, and binders correspond
    by position. A variable of a that left does not bind matches an equal
    free variable of b or, with same_global, what same_global accepts. With
    unfold, a pair with an application on either side, or any other that does
    not match, goes first to unfold(a, b, left, right): a pair to compare instead, or None."""
    stack = [(a, b, left, right)]
    while stack:
        a, b, left, right = stack.pop()
        spine = unfold is not None and (type(a) is App or type(b) is App)
        if not spine or (pair := unfold(a, b, left, right)) is None:
            if isinstance(a, Var):
                slot = var_slot(a, left)
                if slot is None and same_global is not None:
                    if same_global(a, b, right):
                        continue
                elif isinstance(b, Var) and slot == var_slot(b, right) and (slot is not None or a == b):
                    continue
            elif (kids := paired_children(a, b)) is not None:
                stack += [(x, y, left + nx, right + ny) for x, y, nx, ny in kids]
                continue
            if unfold is None or spine or (pair := unfold(a, b, left, right)) is None:
                return False
        stack.append(pair)
    return True


def alpha_eq_decl(a: TopDecl, b: TopDecl, same_global: GlobalEq = None, unfold: Optional[Callable] = None) -> bool:
    """True iff the declarations differ only in bound-variable names.

    The declared name itself binds (recursive references correspond), so
    fold1 and fold2 from the two transformation runs compare equal.
    Attached comments are metadata and are ignored. With same_global, which
    decides free variables as alpha_eq_expr's does, the declared name binds
    nothing: a recursive reference is compared as any global one.
    """
    if isinstance(a, DataDecl) or isinstance(b, DataDecl):
        if not (isinstance(a, DataDecl) and isinstance(b, DataDecl)):
            return False
        return a.name == b.name and a.constructors == b.constructors
    assert isinstance(a, FunDecl) and isinstance(b, FunDecl)
    if len(a.equations) != len(b.equations):
        return False
    roots, own_a, own_b = [], (a.name,), (b.name,)
    if same_global is not None:
        own_a = own_b = ()
    for ea, eb in zip(a.equations, b.equations):
        if (
            tuple(map(pattern_shape, ea.patterns)) != tuple(map(pattern_shape, eb.patterns))
            or [len(loc.params) for loc in ea.locals] != [len(loc.params) for loc in eb.locals]
        ):
            return False
        left, right = own_a + equation_scope(ea), own_b + equation_scope(eb)
        roots.append((ea.rhs, eb.rhs, left, right))
        roots += [
            (la.rhs, lb.rhs, left + la.params, right + lb.params)
            for la, lb in zip(ea.locals, eb.locals)
        ]
    return all(alpha_eq_expr(*root, same_global, unfold) for root in roots)


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
