"""Shared rewriting machinery for the refactoring catalog.

Access construction: an operation that renames, moves or drops a top-level
definition first builds its structural result, then gives each use of the
name the shortest access (bare `n` or `Q.n`) that denotes, in the result,
what the use denoted before the step, with the old definition read as the
new one (retarget_name). A body that moves to another module first has its
free references qualified by their home modules (requalify_name), so it
reads the same definitions wherever it lands. A use whose access does not
change is left as the same object, and so is everything around it.
"""

from __future__ import annotations

from functools import partial

from .lang import (
    Equation, Expr, FunDecl, Project, TopDecl, Var, make_app, map_decl_roots, map_scoped, map_vars,
    replace, rewritten, var_slot,
)
from .names import alpha_eq_expr, free_vars
from .resolver import (
    SymbolTable, build_symbol_table, decl_reads, has_droppable, importers_of, mentioned_names, project_state,
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
        mod, on_var = project.modules[mname], partial(fn, mname)
        decls = tuple(
            map_decl_roots(d, lambda root, bound: map_vars(root, bound, on_var))
            if isinstance(d, FunDecl) and touches(mname, decl_reads(d)) else d
            for d in mod.decls
        )
        if any(d is not old for d, old in zip(decls, mod.decls)):
            new[mname] = replace(mod, decls=decls)
    return rewritten(project, new) if new else project


def requalify_name(
    table: SymbolTable, def_module: str, defn: FunDecl, site_module: str
) -> tuple[tuple[Equation, ...], set[str]]:
    """Qualify the free references of a definition's equations by their home
    modules, looked up in the caller's table, so the bodies read the same
    definitions at site_module. Returns the rewritten equations and the set
    of modules the site must import."""
    if def_module == site_module:
        return defn.equations, set()
    needed: set[str] = set()

    def qualify(e: Var, bound: frozenset[str]) -> Expr:
        if e.qualifier is not None:
            needed.add(e.qualifier)
            return e
        if e.name in bound:
            return e
        refs = table.lookup(def_module, e.name)
        if len(refs) == 1:
            needed.add(refs[0].module)
            return Var(e.name, qualifier=refs[0].module)
        return e

    out = map_decl_roots(defn, lambda root, bound: map_vars(root, bound, qualify))
    return out.equations, {n for n in needed if n != site_module}  # type: ignore[union-attr]


def minimize_qualifiers(project: Project) -> Project:
    """Drop qualifiers wherever the bare name resolves uniquely to the target.
    Only the modules the project's state has pending and that have a
    droppable qualifier are visited, and the result has none pending:
    minimizing changes no module's interface. In those modules, a
    declaration is rewritten only when one of its droppable qualifiers names
    the bare name's one candidate."""
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

    pending = [m for m in sorted(project_state(project).unminimised) if has_droppable(project.modules[m])]
    out = _rewrite_vars(project, fix, pending, touches)
    project_state(out).unminimised.clear()
    return out


def retarget_name(
    before: Project, after: Project, old: tuple[str, str], new: tuple[str, str]
) -> Project:
    """after, with each free variable named old's or new's name given the
    shortest access to what it denoted in before, old read as new. A
    variable resolves against before's table, a qualified one to its
    qualifier; its access is the bare name where that name is not bound
    locally and after's table has the target as its one candidate, else
    Q.n. A variable whose access does not change comes back as the same
    object. Only the homes of old and new and their importers, before and
    after, can see either definition or have a changed scope: only they are scanned."""
    was, now = build_symbol_table(before), build_symbol_table(after)
    names = {old[1], new[1]}

    def fix(mname: str, v: Var, bound: frozenset[str]) -> Expr:
        if v.name not in names:
            return v
        if v.qualifier is not None:
            target = (v.qualifier, v.name)
        elif v.name in bound:
            return v
        else:
            refs = was.lookup(mname, v.name)
            if len(refs) != 1:
                return v
            target = (refs[0].module, refs[0].name)
        module, name = new if target == old else target
        refs = now.lookup(mname, name)
        bare = name not in bound and len(refs) == 1 and refs[0].module == module
        qualifier = None if bare else module
        return v if (qualifier, name) == (v.qualifier, v.name) else Var(name, qualifier)

    homes = {old[0], new[0]}
    scan = homes.union(*(importers_of(p, h) for p in (before, after) for h in homes))
    mentioning = [m for m in sorted(scan) if not names.isdisjoint(mentioned_names(after.modules[m]))]
    return _rewrite_vars(after, fix, mentioning, lambda m, reads: any(map(reads.mentions, names)))


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
        bound, is an instance of template; sigma receives the parameters.
        Scopes name the binders inside the match only."""

        def hole(t: Var, c: Expr, cscope: tuple[str, ...]) -> bool:
            if t.qualifier is None and t.name in self.params:
                # The bound expression escapes the matched subtree: no
                # occurrence may capture names bound inside the match.
                if cscope and not free_vars(c).isdisjoint(cscope):
                    return False
                return sigma.setdefault(t.name, c) == c
            # Neither is bound in the match: both must denote one top-level
            # definition, which a name bound at the site does not.
            if type(c) is not Var or var_slot(c, cscope) is not None or (c.qualifier is None and c.name in site_bound):
                return False
            target = self._global(self.template_module, t)
            return target is not None and target == self._global(site_module, c)

        return alpha_eq_expr(template, candidate, same_global=hole)


def fold_instances_in_expr(
    matcher: InstanceMatcher,
    template: Expr,
    params: tuple[str, ...],
    head: Var,
    d: TopDecl,
    site_module: str,
) -> tuple[TopDecl, int]:
    """Bottom-up replacement, in every root of d, of the instances of
    template by head applied to the matched parameters; returns (declaration,
    instances folded)."""
    count = 0

    def fold(e: Expr, bound: frozenset[str]) -> Expr:
        nonlocal count
        sigma: dict[str, Expr] = {}
        if matcher.match(template, e, site_module, bound, sigma) and set(sigma) == set(params):
            count += 1
            return make_app(head, [sigma[p] for p in params])
        return e

    return map_decl_roots(d, lambda root, bound: map_scoped(root, bound, fold)), count
