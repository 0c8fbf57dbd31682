"""Shared rewriting machinery for the refactoring catalog.

Qualification discipline: operations first re-qualify occurrences whose
resolution is about to become ambiguous, then perform the structural change
with fully qualified references, and finally minimize qualifiers project-wide
(a qualifier is kept only where the unqualified name would not resolve
uniquely to the same definition). This reproduces the qualified forms the
transformations display (Client.eval, ConstMod.eval, ...) without ever
guessing an occurrence's intent.
"""

from __future__ import annotations

from dataclasses import replace

from .lang import (
    App, Builtin, Case, ConApp, Expr, Infix, IntLit, Let, Project, StrLit,
    Tuple, Var, map_decl_roots, map_scoped, pattern_vars,
)
from .names import _alpha_pattern, free_vars
from .resolver import (
    SymbolTable, build_symbol_table, imports_memo, mentioned_names,
)


def rewrite_project_vars(project: Project, fn) -> Project:
    """fn(module_name, var, bound) -> Expr, applied to every occurrence.
    Modules, declarations and nodes with no rewritten occurrence come back as
    the same objects, and so does the project when nothing changed."""
    return _rewrite_vars(project, fn, lambda mod: True)


def _rewrite_vars(project: Project, fn, walk) -> Project:
    """rewrite_project_vars over the modules for which walk(mod) holds; the
    callers skip only modules in which fn can change no occurrence."""
    mods = dict(project.modules)
    for mname, mod in project.modules.items():
        if not walk(mod):
            continue

        def on_var(e: Expr, bound: frozenset[str], _m=mname) -> Expr:
            return fn(_m, e, bound) if isinstance(e, Var) else e

        decls = tuple(
            map_decl_roots(d, lambda root, bound: map_scoped(root, bound, on_var))
            for d in mod.decls
        )
        if any(new is not old for new, old in zip(decls, mod.decls)):
            mods[mname] = replace(mod, decls=decls)
    if all(mods[m] is mod for m, mod in project.modules.items()):
        return project
    return Project(mods)


def requalify_name(project: Project, name: str) -> Project:
    """Pin down every free occurrence of name with an explicit qualifier."""
    table = build_symbol_table(project)

    def fix(mname: str, v: Var, bound: frozenset[str]) -> Expr:
        if v.name != name or v.qualifier is not None or v.name in bound:
            return v
        refs = table.lookup(mname, name)
        if len(refs) == 1:
            return Var(name, qualifier=refs[0].module)
        return v

    return _rewrite_vars(project, fix, lambda mod: name in mentioned_names(mod))


def minimize_qualifiers(project: Project) -> Project:
    """Drop qualifiers wherever the bare name resolves uniquely to the target.
    A module minimized before under the same import objects is skipped:
    minimizing changes no module's interface, so its result stays minimal."""
    table = build_symbol_table(project)

    def fix(mname: str, v: Var, bound: frozenset[str]) -> Expr:
        if v.qualifier is None or v.name in bound:
            return v
        refs = table.lookup(mname, v.name)
        if len(refs) == 1 and refs[0].module == v.qualifier:
            return Var(v.name)
        return v

    out = _rewrite_vars(project, fix, lambda mod: "minimal" not in imports_memo(project, mod))
    for mod in out.modules.values():
        imports_memo(out, mod)["minimal"] = True
    return out


def retarget_name(
    project: Project, old: tuple[str, str], new: tuple[str, str]
) -> Project:
    """Repoint every occurrence of a top-level definition to a new (module,
    name), emitting fully qualified references; minimize afterwards."""
    table = build_symbol_table(project)
    old_mod, old_name = old
    new_mod, new_name = new

    def fix(mname: str, v: Var, bound: frozenset[str]) -> Expr:
        if v.name != old_name:
            return v
        if v.qualifier is None:
            if v.name in bound:
                return v
            refs = table.lookup(mname, v.name)
            if len(refs) != 1 or (refs[0].module, refs[0].name) != old:
                return v
        elif v.qualifier != old_mod:
            return v
        return Var(new_name, qualifier=new_mod)

    return _rewrite_vars(project, fix, lambda mod: old_name in mentioned_names(mod))


# --- second-order instance matching (fold, generative fold) ---

class InstanceMatcher:
    """Match expressions against a template whose parameters stand for
    arbitrary expressions; every other name must denote the same definition
    on both sides (binders correspond positionally)."""

    def __init__(self, table: SymbolTable, params: tuple[str, ...], template_module: str):
        self.table = table
        self.params = set(params)
        self.template_module = template_module

    def _target(self, module: str, v: Var, local_map: dict[str, int], outer: frozenset[str]):
        if v.qualifier is None and v.name in local_map:
            return ("match-local", local_map[v.name])
        if v.qualifier is None and v.name in outer:
            return ("enclosing", v.name)
        if v.qualifier is not None:
            return ("global", v.qualifier, v.name)
        refs = self.table.lookup(module, v.name)
        if len(refs) != 1:
            return ("unresolved", v.name)
        return ("global", refs[0].module, refs[0].name)

    def match(
        self,
        template: Expr,
        candidate: Expr,
        site_module: str,
        site_bound: frozenset[str],
        sigma: dict[str, Expr],
    ) -> bool:
        return self._match(
            template, candidate, {}, {}, 0, site_module, site_bound, sigma, set()
        )

    def _match(self, t, c, tmap, cmap, depth, site_module, site_bound, sigma, inner_names):
        if isinstance(t, Var) and t.qualifier is None and t.name in self.params and t.name not in tmap:
            if t.name in sigma:
                return sigma[t.name] == c
            # The bound expression escapes the matched subtree: it must not
            # capture names bound inside the match.
            if free_vars(c) & inner_names:
                return False
            sigma[t.name] = c
            return True
        match t, c:
            case Var(_, _), Var(_, _):
                tt = self._target(self.template_module, t, tmap, frozenset())
                ct = self._target(site_module, c, cmap, site_bound)
                if tt[0] == "match-local" or ct[0] == "match-local":
                    return tt == ct
                return tt == ct and tt[0] != "unresolved"
            case IntLit(a), IntLit(b):
                return a == b
            case StrLit(a), StrLit(b):
                return a == b
            case Builtin(a), Builtin(b):
                return a == b
            case ConApp(n1, a1), ConApp(n2, a2):
                return n1 == n2 and len(a1) == len(a2) and all(
                    self._match(x, y, tmap, cmap, depth, site_module, site_bound, sigma, inner_names)
                    for x, y in zip(a1, a2)
                )
            case App(f1, x1), App(f2, x2):
                return self._match(f1, f2, tmap, cmap, depth, site_module, site_bound, sigma, inner_names) and \
                    self._match(x1, x2, tmap, cmap, depth, site_module, site_bound, sigma, inner_names)
            case Infix(o1, l1, r1), Infix(o2, l2, r2):
                return o1 == o2 and \
                    self._match(l1, l2, tmap, cmap, depth, site_module, site_bound, sigma, inner_names) and \
                    self._match(r1, r2, tmap, cmap, depth, site_module, site_bound, sigma, inner_names)
            case Tuple(i1), Tuple(i2):
                return len(i1) == len(i2) and all(
                    self._match(x, y, tmap, cmap, depth, site_module, site_bound, sigma, inner_names)
                    for x, y in zip(i1, i2)
                )
            case Case(s1, b1), Case(s2, b2):
                if len(b1) != len(b2):
                    return False
                if not self._match(s1, s2, tmap, cmap, depth, site_module, site_bound, sigma, inner_names):
                    return False
                for x, y in zip(b1, b2):
                    if not _alpha_pattern(x.pattern, y.pattern):
                        return False
                    tm, cm, d = dict(tmap), dict(cmap), depth
                    inn = set(inner_names)
                    for tv, cv in zip(pattern_vars(x.pattern), pattern_vars(y.pattern)):
                        tm[tv] = d
                        cm[cv] = d
                        inn.add(cv)
                        d += 1
                    if not self._match(x.body, y.body, tm, cm, d, site_module, site_bound, sigma, inn):
                        return False
                return True
            case Let(bs1, bod1), Let(bs2, bod2):
                if len(bs1) != len(bs2):
                    return False
                tm, cm, d = dict(tmap), dict(cmap), depth
                inn = set(inner_names)
                for x, y in zip(bs1, bs2):
                    tm[x.name] = d
                    cm[y.name] = d
                    inn.add(y.name)
                    d += 1
                for x, y in zip(bs1, bs2):
                    if not self._match(x.rhs, y.rhs, tm, cm, d, site_module, site_bound, sigma, inn):
                        return False
                return self._match(bod1, bod2, tm, cm, d, site_module, site_bound, sigma, inn)
            case _:
                return False


def fold_instances_in_expr(
    matcher: InstanceMatcher,
    template: Expr,
    param_order: tuple[str, ...],
    make_call,
    root: Expr,
    site_module: str,
    site_bound: frozenset[str],
) -> tuple[Expr, int]:
    """Bottom-up replacement of template instances by make_call(sigma)."""
    count = 0

    def fold(e: Expr, bound: frozenset[str]) -> Expr:
        nonlocal count
        sigma: dict[str, Expr] = {}
        if matcher.match(template, e, site_module, bound, sigma) and set(sigma) == set(param_order):
            count += 1
            return make_call(sigma)
        return e

    return map_scoped(root, site_bound, fold), count
