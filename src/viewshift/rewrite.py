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
    Expr, FunDecl, Project, Var, map_decl_roots, map_scoped, paired_children, rewritten,
    var_slot,
)
from .names import free_vars
from .resolver import (
    SymbolTable, build_symbol_table, decl_reads, mentioned_names, project_state,
)


def _rewrite_vars(project: Project, fn, names, touches) -> Project:
    """fn(module_name, var, bound) -> Expr, applied to every occurrence in
    the function declarations d of the modules named in names for which
    touches(m, decl_reads(d)) holds; the callers skip only modules and
    declarations in which fn can change no occurrence. Modules,
    declarations and nodes with no rewritten occurrence come back as the
    same objects, and so does the project when nothing changed."""
    new = {}
    for mname in names:
        mod = project.modules[mname]

        def on_var(e: Expr, bound: frozenset[str], _m=mname) -> Expr:
            return fn(_m, e, bound) if isinstance(e, Var) else e

        decls = tuple(
            map_decl_roots(d, lambda root, bound: map_scoped(root, bound, on_var))
            if isinstance(d, FunDecl) and touches(mname, decl_reads(d)) else d
            for d in mod.decls
        )
        if any(d is not old for d, old in zip(decls, mod.decls)):
            new[mname] = replace(mod, decls=decls)
    return rewritten(project, {**project.modules, **new}) if new else project


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

    mentioning = [m for m, mod in project.modules.items() if name in mentioned_names(mod)]
    return _rewrite_vars(project, fix, mentioning, lambda m, reads: reads.mentions(name))


def minimize_qualifiers(project: Project) -> Project:
    """Drop qualifiers wherever the bare name resolves uniquely to the target.
    A module the project's state marks minimal is skipped: minimizing
    changes no module's interface, so every module of the result is marked.
    In any other module, a declaration is rewritten only when one of its
    droppable qualifiers names the bare name's one candidate."""
    table = build_symbol_table(project)

    def fix(mname: str, v: Var, bound: frozenset[str]) -> Expr:
        if v.qualifier is None or v.name in bound:
            return v
        refs = table.lookup(mname, v.name)
        if len(refs) == 1 and refs[0].module == v.qualifier:
            return Var(v.name)
        return v

    def touches(mname: str, reads) -> bool:
        scope = table.scopes[mname]
        for qualifier, name in reads.droppable:
            refs = scope.get(name, ())
            if len(refs) == 1 and refs[0].module == qualifier:
                return True
        return False

    minimal = project_state(project).minimal
    out = _rewrite_vars(project, fix, [m for m in project.modules if m not in minimal], touches)
    project_state(out).minimal.update(out.modules)
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

    mentioning = [m for m, mod in project.modules.items() if old_name in mentioned_names(mod)]
    return _rewrite_vars(project, fix, mentioning, lambda m, reads: reads.mentions(old_name))


# --- second-order instance matching (fold, generative fold) ---

class InstanceMatcher:
    """Match expressions against a template whose parameters stand for
    arbitrary expressions; every other name must denote the same definition
    on both sides (binders correspond positionally)."""

    def __init__(self, table: SymbolTable, params: tuple[str, ...], template_module: str):
        self.table = table
        self.params = set(params)
        self.template_module = template_module

    def _global(self, module: str, v: Var):
        """The (module, name) v denotes at the top level of module, or None."""
        if v.qualifier is not None:
            return (v.qualifier, v.name)
        refs = self.table.lookup(module, v.name)
        return (refs[0].module, refs[0].name) if len(refs) == 1 else None

    def match(
        self,
        template: Expr,
        candidate: Expr,
        site_module: str,
        site_bound: frozenset[str],
        sigma: dict[str, Expr],
    ) -> bool:
        """Whether candidate, at a site of site_module where site_bound is
        bound, is an instance of template; sigma receives the parameters."""
        # Scopes name the binders inside the match only, in binding order.
        stack = [(template, candidate, (), ())]
        while stack:
            t, c, tscope, cscope = stack.pop()
            if isinstance(t, Var) and t.qualifier is None and t.name in self.params and t.name not in tscope:
                # The bound expression escapes the matched subtree: no
                # occurrence may capture names bound inside the match.
                if cscope and not free_vars(c).isdisjoint(cscope):
                    return False
                if sigma.setdefault(t.name, c) != c:
                    return False
            elif isinstance(t, Var):
                if not isinstance(c, Var):
                    return False
                slot = var_slot(t, tscope)
                if slot != var_slot(c, cscope):
                    return False
                if slot is None:
                    # Neither is bound in the match: both must denote one
                    # top-level definition, which a name bound at the site
                    # does not.
                    target = self._global(self.template_module, t)
                    if target is None or (c.qualifier is None and c.name in site_bound):
                        return False
                    if target != self._global(site_module, c):
                        return False
            else:
                kids = paired_children(t, c)
                if kids is None:
                    return False
                stack += [(x, y, tscope + nx, cscope + ny) for x, y, nx, ny in kids]
        return True


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
