"""The refactoring operation catalog.

Every operation is a pure Project -> Project function. Preconditions are
checked up front and raise RefactorError without touching the input; after a
successful rewrite the project is re-resolved and its qualifiers minimized,
so each operation's output is a well-formed canonical project.

Operations address their targets by names (function, constructor, module),
never by source positions.
"""

from __future__ import annotations

from .lang import (
    BUILTINS, App, Case, CaseBranch, CommentBlock, Equation, Expr, FunDecl, Let,
    LetBinding, LocalDef, ModuleDef, PCon, PTuple, PVar, Pattern, Project,
    TopDecl, Tuple, Var, app_spine, binder_children, decl_expr_at, decl_expr_roots,
    decl_name, equation_scope, make_app, map_decl_roots, map_scoped, map_vars, pattern_vars,
    replace, replace_decl_expr_at, rewritten, scoped_vars, with_decl,
    with_equation, with_local, with_module,
)
from .names import (
    alpha_eq_decl, all_names, free_vars, fresh_name,
    substitute, substitute_many,
)
from .parse import ParseError, parse_decl, tokenize
from .render import render_decl
from .resolver import (
    ResolveError, SymbolTable, applications, build_symbol_table, decl_reads,
    decl_refs, find_application, module_exports, module_names, module_scope,
    importers_of, readers_of, resolve_site, resolve_var, resolve_project, unused_imports,
)
from .rewrite import (
    InstanceMatcher, fold_instances_in_expr, minimize_qualifiers,
    requalify_name, retarget_name,
)

KINDS = ("NameClash", "NotFound", "NotApplicable", "StillUsed", "PreconditionFailed")


class RefactorError(Exception):
    """Raised when a precondition fails; the input project is left untouched."""

    def __init__(self, kind: str, message: str):
        assert kind in KINDS
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def _not_found(message: str) -> RefactorError:
    return RefactorError("NotFound", message)


def _module(project: Project, m: str) -> ModuleDef:
    mod = project.modules.get(m)
    if mod is None:
        raise _not_found(f"no module named {m}")
    return mod


def _new_name(name: str, kind: str = "lower") -> str:
    """name, if the output can parse it back as a variable (kind="con": a module)."""
    try:
        ok = [(t.kind, t.text) for t in tokenize(name)[0]] == [(kind, name)] and name not in BUILTINS
    except ParseError:
        ok = False
    if not ok:
        raise RefactorError("NotApplicable", f"{name!r} is not a valid {'module' if kind == 'con' else 'variable'} name")
    return name


def _fun_decl(mod: ModuleDef, f: str) -> tuple[int, FunDecl]:
    for i, d in enumerate(mod.decls):
        if decl_name(d) == f:
            if not isinstance(d, FunDecl):
                raise RefactorError("NotApplicable", f"{f} in {mod.name} is a data declaration")
            return i, d
    raise _not_found(f"no top-level {f} in module {mod.name}")


def _function(project: Project, m: str, f: str) -> tuple[ModuleDef, int, FunDecl]:
    """Module m, and the index and declaration of its top-level function f."""
    mod = _module(project, m)
    return (mod, *_fun_decl(mod, f))


def _without_decl(mod: ModuleDef, name: str) -> ModuleDef:
    """mod without the top-level declaration name and its export entry."""
    exports = mod.exports
    if exports is not None:
        exports = tuple(n for n in exports if n != name)
    decls = tuple(d for d in mod.decls if decl_name(d) != name)
    return replace(mod, decls=decls, exports=exports)


def _finish(project: Project) -> Project:
    """Post-operation pipeline: validate resolution, canonicalize qualifiers.
    A rewrite that leaves a name unresolvable fails its step as
    PreconditionFailed; the operation's input is untouched."""
    try:
        resolve_project(project)
        out = minimize_qualifiers(project)
        resolve_project(out)
    except ResolveError as exc:
        raise RefactorError("PreconditionFailed", str(exc)) from exc
    return out


def _con_equation(d: FunDecl, c: str) -> tuple[int, Equation, PCon]:
    """The equation whose first constructor pattern is c, and that pattern."""
    for i, eq in enumerate(d.equations):
        for p in eq.patterns:
            if isinstance(p, PCon):
                if p.name == c:
                    return i, eq, p
                break
    raise _not_found(f"{d.name} has no equation matching constructor {c}")


def _where_local(
    mod: ModuleDef, name: str, f: str | None = None, missing: str | None = None
) -> tuple[int, int, int] | None:
    """(decl index, equation index, local index) of the where-local called
    name among f's equations, or among the whole module's without f. When
    there is none: None, or with missing a NotFound saying so. A name that
    more than one where-local carries is refused rather than resolved to one
    of them."""
    hits = [
        (di, ei, li)
        for di, d in enumerate(mod.decls) if isinstance(d, FunDecl) and f in (None, d.name)
        for ei, eq in enumerate(d.equations)
        for li, loc in enumerate(eq.locals) if loc.name == name
    ]
    if len(hits) > 1:
        raise _not_found(f"{name} names more than one local definition in {f or mod.name}")
    if not hits and missing is not None:
        raise _not_found(missing)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# preconditions that several operations share

def _unbound(project: Project, m: str, name: str, *scopes) -> None:
    """Refuse to bind name where m's top-level scope, or one of scopes, binds it."""
    if name in module_scope(project, m)[0] or any(name in s for s in scopes):
        raise RefactorError("NameClash", f"{name} is already in scope in {m}")


def _single_equation(d: FunDecl) -> Equation:
    if len(d.equations) != 1:
        raise RefactorError("NotApplicable", f"{d.name} must have a single equation")
    return d.equations[0]


def _without_locals(d: FunDecl, what: str) -> None:
    if any(eq.locals for eq in d.equations):
        raise RefactorError("NotApplicable", f"{what} has where-locals")


def _plain_equation(d: FunDecl, what: str) -> tuple[Equation, tuple[str, ...]]:
    """d's single equation, which has no where-locals, and its parameters,
    each a plain variable."""
    eq = _single_equation(d)
    _without_locals(d, what)
    if not all(isinstance(p, PVar) for p in eq.patterns):
        raise RefactorError("NotApplicable", f"{what}'s parameters must be plain variables")
    return eq, tuple(p.name for p in eq.patterns)  # type: ignore[union-attr]


def _case_body(f: str, e: Expr) -> Case:
    """e, f's body or what its outer lets scope over, as a case expression."""
    if not isinstance(e, Case):
        raise RefactorError("NotApplicable", f"the body of {f} is not a case expression")
    return e


# ---------------------------------------------------------------------------
# introduce new definitions

def exhibit_function(project: Project, f: str, c: str, n: str, m: str) -> Project:
    """Turn the RHS of f's equation for constructor c into a where-local n."""
    _new_name(n)
    mod, di, d = _function(project, m, f)
    ei, eq, _ = _con_equation(d, c)
    _unbound(project, m, n, equation_scope(eq))
    new_eq = replace(eq, rhs=Var(n), locals=eq.locals + (LocalDef(n, (), eq.rhs),))
    project = with_module(project, with_decl(mod, di, with_equation(d, ei, new_eq)))
    return _finish(project)


def new_def_fun_app(project: Project, f: str, arg_count: int, fp: str, m: str) -> Project:
    """Name the first application of f to arg_count arguments as a where-local fp."""
    if arg_count < 1:
        raise RefactorError("NotApplicable", "an application has at least one argument")
    _new_name(fp)
    mod = _module(project, m)
    try:
        occ = find_application(project, m, f, arg_count)
    except ResolveError as exc:
        raise _not_found(str(exc))
    di, d = _fun_decl(mod, occ.decl)
    ei, slot = occ.path[0], occ.path[1]
    eq = d.equations[ei]
    # The new local sits beside the equation's others, outside the case and
    # let binders and the local's parameters between the root and the
    # application: a name they bind must not be used or shadow fp there.
    _, _, app_expr, between = next(r for r in decl_expr_roots(d, ei) if r[1] == slot)
    for i in occ.path[2:]:
        app_expr, names = binder_children(app_expr)[i]
        between = between.union(names)
    _unbound(project, m, fp, equation_scope(eq), between)
    escaping = free_vars(app_expr) & between
    if escaping:
        raise RefactorError(
            "NotApplicable",
            f"the application of {f} uses {sorted(escaping)}, bound between it and its equation",
        )
    d2 = replace_decl_expr_at(d, occ.path, Var(fp))
    eq2 = d2.equations[ei]
    eq2 = replace(eq2, locals=eq2.locals + (LocalDef(fp, (), app_expr),))
    project = with_module(project, with_decl(mod, di, with_equation(d2, ei, eq2)))
    return _finish(project)


# ---------------------------------------------------------------------------
# generalisation

def _replace_exact(
    root: Expr, bound: frozenset[str], target: Expr, replacement: Expr, guard: set[str]
) -> tuple[Expr, int]:
    """Replace occurrences of target (structurally) where none of the guard
    names is bound; returns (expr, count)."""
    count = 0

    def swap(e: Expr, inner: frozenset[str]) -> Expr:
        nonlocal count
        if e == target and not (guard & inner):
            count += 1
            return replacement
        return e

    return map_scoped(root, bound, swap), count


def _apply_local_uses(d: FunDecl, ei: int, name: str, args: list[Expr]) -> FunDecl:
    """Apply every use of the where-local name of equation ei, recursive
    ones included, to args. A use where a binder captures a name of args is
    refused."""
    arg_names = set().union(*(free_vars(a) for a in args))

    def fix(e: Var, bound: frozenset[str]) -> Expr:
        if e.qualifier is None and e.name == name and name not in bound:
            if arg_names & bound:
                captured = sorted(arg_names & bound)
                raise RefactorError("NameClash", f"{captured} rebound where {name} is used")
            return make_app(e, args)
        return e

    out = map_decl_roots(d, lambda root, bound: map_vars(root, bound, fix), local_of=ei)
    assert isinstance(out, FunDecl)
    return out


def generalise(
    project: Project,
    f: str,
    c: str,
    fp: str,
    m: str,
    arg_index: int,
    x: str,
    curry_flag: str,
    mode: str,
) -> Project:
    """Abstract, inside local fp of f's equation for c, either the n-th
    constructor-pattern variable (OtherType) or the application of f to it
    (RecType) into a new leading parameter x, passing the abstracted
    expression at fp's use sites."""
    if mode not in ("OtherType", "RecType"):
        raise RefactorError("PreconditionFailed", f"unknown generalise mode {mode}")
    if curry_flag not in ("curried", "tupled"):
        raise RefactorError("PreconditionFailed", f"unknown curry flag {curry_flag}")
    _new_name(x)
    mod, di, d = _function(project, m, f)
    ei, eq, pat = _con_equation(d, c)
    hit = _where_local(mod, fp, f)
    if hit is None or hit[1] != ei:
        raise _not_found(f"{f}'s equation for {c} has no local {fp}")
    li = hit[2]
    loc = eq.locals[li]
    # curry_flag only governs argument counting; sub-patterns are stored
    # uniformly, so both flags count the same way here.
    if not (1 <= arg_index <= len(pat.args)):
        raise _not_found(f"constructor {c} has no argument {arg_index}")
    sub = pat.args[arg_index - 1]
    if not isinstance(sub, PVar):
        raise _not_found(f"argument {arg_index} of {c} is not a plain variable")
    v = sub.name
    target: Expr = Var(v) if mode == "OtherType" else App(Var(f), Var(v))
    guard = {v} if mode == "OtherType" else {v, f}

    new_body, found = _replace_exact(loc.rhs, frozenset(loc.params), target, Var(x), guard)
    if not found:
        what = v if mode == "OtherType" else f"{f} {v}"
        raise RefactorError("NotApplicable", f"{what} does not occur in the body of {fp}")
    if x in all_names(loc.rhs) or x in loc.params or x in equation_scope(eq):
        raise RefactorError("NameClash", f"{x} is already in scope in {fp}")

    eq = with_local(eq, li, LocalDef(fp, (x,) + loc.params, new_body))
    # Every use of fp inside the equation now passes the target first.
    d = _apply_local_uses(with_equation(d, ei, eq), ei, fp, [target])
    project = with_module(project, with_decl(mod, di, d))
    return _finish(project)


def generalise_ident(project: Project, f: str, m: str, v: str, x: str) -> Project:
    """Abstract the free identifier v of f's body into a new first parameter x.

    Recursive call sites pass x; call sites in m pass v directly; call sites
    in other modules receive a fresh `<f>_gen*` top-level binding `= v` added
    to m (at most one per call), matching the observed eval_gen behavior.
    f may also name a where-local, in which case its use sites within the
    enclosing declaration pass v directly.
    """
    _new_name(x)
    mod = _module(project, m)
    top = mod.decl(f)
    if isinstance(top, FunDecl):
        return _generalise_ident_top(project, f, m, v, x)
    if top is not None:
        raise RefactorError("NotApplicable", f"{f} in {m} is a data declaration")
    hit = _where_local(mod, f, missing=f"no definition of {f} in module {m}")
    return _generalise_ident_local(project, m, v, x, *hit)


def _generalise_ident_top(project: Project, f: str, m: str, v: str, x: str) -> Project:
    mod, di, d = _function(project, m, f)
    if v == f or ("var", None, v) not in decl_reads(d).checks:
        raise _not_found(f"{v} is not free in the body of {f}")
    if v not in module_scope(project, m)[0]:
        raise _not_found(f"{v} does not resolve at the top level of {m}")
    if x in decl_reads(d).names or x == v:
        raise RefactorError("NameClash", f"{x} is already used inside {f}")

    # f's own equations: occurrences of v become x, recursive calls gain x,
    # and x heads every parameter list.
    def fix_own(e: Var, bound: frozenset[str]) -> Expr:
        if e.qualifier is None and e.name == v and v not in bound:
            return Var(x)
        if e.name == f and f not in bound and e.qualifier in (None, m):
            return App(e, Var(x))
        return e

    d = map_decl_roots(d, lambda root, bound: map_vars(root, bound, fix_own))
    own = replace(d, equations=tuple(replace(eq, patterns=(PVar(x),) + eq.patterns) for eq in d.equations))
    out = {m: with_decl(mod, di, own)}

    # Every other caller passes v in m and a fresh `<f>_gen*` elsewhere: one
    # rewrite of each declaration whose reads name f, as the input has it.
    readers = list(readers_of(build_symbol_table(project), project, (m, f), skip=f))
    aux_name = None
    if any(mname != m for mname, _, _ in readers):
        aux_name = fresh_name(f, {x, v}, *map(module_names, project.modules.values()))
        exports = None if mod.exports is None else mod.exports + (aux_name,)
        aux = FunDecl(aux_name, (Equation((), Var(v)),))
        out[m] = replace(out[m], decls=out[m].decls + (aux,), exports=exports)
    for mname, dx, quals in readers:
        arg = Var(v) if mname == m else Var(aux_name)  # aux_name is bound nowhere

        def call(e: Var, bound: frozenset[str]) -> Expr:
            if e.name != f or e.qualifier not in quals or (e.qualifier is None and f in bound):
                return e
            if arg.name in bound:
                raise RefactorError("NameClash", f"{v} is rebound where {dx.name} calls {f}")
            return App(e, arg)

        modx = out.get(mname, project.modules[mname])
        new_dx = map_decl_roots(dx, lambda root, bound: map_vars(root, bound, call))
        out[mname] = with_decl(modx, modx.decls.index(dx), new_dx)
    return _finish(rewritten(project, out))


def _generalise_ident_local(
    project: Project, m: str, v: str, x: str, di: int, ei: int, li: int
) -> Project:
    mod = _module(project, m)
    d = mod.decls[di]
    assert isinstance(d, FunDecl)
    eq = d.equations[ei]
    loc = eq.locals[li]
    f = loc.name
    if v not in free_vars(loc.rhs) - set(loc.params):
        raise _not_found(f"{v} is not free in the body of {f}")
    if x in decl_reads(d).names or x == v:
        raise RefactorError("NameClash", f"{x} is already used inside {d.name}")

    eq = with_local(eq, li, LocalDef(f, (x,) + loc.params, substitute(loc.rhs, v, Var(x))))
    d = _apply_local_uses(with_equation(d, ei, eq), ei, f, [Var(v)])
    project = with_module(project, with_decl(mod, di, d))
    return _finish(project)


# ---------------------------------------------------------------------------
# lambda lifting

def lift_to_top(project: Project, f: str, d_name: str, m: str) -> Project:
    """Promote the where-local d of f to a top-level declaration of m,
    prepending any enclosing-equation variables it captures as parameters."""
    mod, di, d = _function(project, m, f)
    _, ei, li = _where_local(mod, d_name, f, f"{f} has no local definition {d_name}")
    eq = d.equations[ei]
    loc = eq.locals[li]
    _unbound(project, m, d_name)

    sibling_names = {other.name for other in eq.locals} - {d_name}
    frees = free_vars(loc.rhs) - set(loc.params) - {d_name}
    if frees & sibling_names:
        raise RefactorError(
            "NotApplicable",
            f"{d_name} references sibling locals {sorted(frees & sibling_names)}",
        )
    captured = [v for p in eq.patterns for v in pattern_vars(p) if v in frees]
    d = _apply_local_uses(d, ei, d_name, [Var(cv) for cv in captured])
    eq = d.equations[ei]
    new_params = tuple(PVar(p) for p in tuple(captured) + loc.params)
    lifted = FunDecl(d_name, (Equation(new_params, eq.locals[li].rhs),))
    d = with_equation(d, ei, with_local(eq, li, None))
    decls = mod.decls[:di] + (d, lifted) + mod.decls[di + 1:]
    project = with_module(project, replace(mod, decls=decls))
    return _finish(project)


# ---------------------------------------------------------------------------
# rename / move

def rename_top_level(project: Project, f: str, m: str, fp: str) -> Project:
    """Rename a top-level definition, updating all occurrences and exports;
    occurrences that would become ambiguous are qualified."""
    mod, di, d = _function(project, m, f)
    if f == fp:
        return project
    _unbound(project, m, fp)
    _new_name(fp)
    exports = mod.exports
    if exports is not None:
        exports = tuple(fp if n == f else n for n in exports)
    after = with_module(project, replace(with_decl(mod, di, replace(d, name=fp)), exports=exports))
    return _finish(retarget_name(project, after, (m, f), (m, fp)))


def move_def(project: Project, f: str, m: str, mp: str) -> Project:
    """Move the top-level definition of f from m to mp (created if absent);
    importers are rewired and newly ambiguous references are qualified."""
    mod, di, d = _function(project, m, f)
    if m == mp:
        raise RefactorError("NotApplicable", f"{f} is already in {m}")
    dest = project.modules.get(mp)
    if dest is not None and dest.decl(f) is not None:
        raise RefactorError("NameClash", f"{mp} already defines {f}")
    created_dest = dest is None
    if created_dest:
        project = with_module(project, ModuleDef(_new_name(mp, "con"), None, (), ()))

    table = build_symbol_table(project)
    # Modules the moved body depends on; f's own recursive calls move with
    # it, so they do not make mp import m.
    needed = {
        ref.module for ref in decl_refs(table, project, m, d)
        if (ref.module, ref.name) != (m, f)
    }
    needed.discard(mp)
    # Modules that reference f, read from their declarations' reads.
    referencing = {mname for mname, _, _ in readers_of(table, project, (m, f), skip=f)}
    referencing.discard(mp)

    # The move adds imports mp -> needed and r -> mp: a new cycle passes through mp.
    added = {r: (mp,) for r in referencing} | {mp: tuple(sorted(needed))}
    if mp in _imported_from(project, mp, added):
        raise RefactorError(
            "PreconditionFailed", f"moving {f} from {m} to {mp} would create an import cycle"
        )

    # The moved body reads, from mp, exactly what it read in m.
    equations, _ = requalify_name(table, m, d, mp)
    after = with_module(project, _without_decl(mod, f))
    dest = after.modules[mp]
    new_imports = dest.imports + tuple(sorted(needed - set(dest.imports)))
    dest_exports = dest.exports
    if dest_exports is not None and referencing and f not in dest_exports:
        dest_exports = dest_exports + (f,)
    moved = replace(d, equations=equations)
    after = with_module(
        after,
        replace(dest, imports=new_imports, decls=dest.decls + (moved,), exports=dest_exports),
    )

    for r in sorted(referencing):
        rm = after.modules[r]
        if mp not in rm.imports:
            after = with_module(after, replace(rm, imports=rm.imports + (mp,)))

    return _finish(retarget_name(project, after, (m, f), (mp, f)))


def _imported_from(project: Project, start: str, added: dict[str, tuple[str, ...]]):
    """Each module start imports, directly or not, once; added[m] adds to m's imports."""
    seen, stack = set(), [start]
    while stack:
        m = stack.pop()
        for imp in project.modules[m].imports + added.get(m, ()):
            if imp not in seen:
                seen.add(imp)
                stack.append(imp)
                yield imp


# ---------------------------------------------------------------------------
# unfold / fold

def _case_of_equations(equations: tuple[Equation, ...], args: list[Expr]) -> Expr:
    arity = len(equations[0].patterns)
    scrutinee = args[0] if arity == 1 else Tuple(tuple(args))
    branches = []
    for eq in equations:
        pattern = eq.patterns[0] if arity == 1 else PTuple(eq.patterns)
        branches.append(CaseBranch(pattern, eq.rhs))
    return Case(scrutinee, tuple(branches))


def _inline_definition(
    table: SymbolTable,
    project: Project,
    m: str,
    def_module: str,
    defn: FunDecl,
    args: list[Expr],
    what: str,
) -> tuple[Project, Expr]:
    """Build the unfolded expression for a definition applied to args."""
    _without_locals(defn, what)
    arity = defn.arity
    if len(args) < arity:
        raise RefactorError(
            "NotApplicable",
            f"{what} takes {arity} argument(s) but is applied to {len(args)} here",
        )
    equations, needed = requalify_name(table, def_module, defn, m)
    for imp in sorted(needed):
        modx = project.modules[m]
        if imp != m and imp not in modx.imports:
            project = with_module(project, replace(modx, imports=modx.imports + (imp,)))
    used, rest = args[:arity], args[arity:]
    if len(equations) == 1 and all(isinstance(p, PVar) for p in equations[0].patterns):
        eq = equations[0]
        mapping = {p.name: a for p, a in zip(eq.patterns, used)}  # type: ignore[union-attr]
        body = substitute_many(eq.rhs, mapping) if mapping else eq.rhs
        new_expr: Expr = make_app(body, rest) if rest else body
    else:
        new_expr = _case_of_equations(equations, used)
        if rest:
            new_expr = make_app(new_expr, rest)
    return project, new_expr


def unfold_instance(project: Project, d_token: str, f: str, m: str) -> Project:
    """Replace the first occurrence of d in f's body by its definition,
    beta-reducing when possible; a multi-equation definition unfolds to a
    case over the tuple of its arguments."""
    mod, di, fd = _function(project, m, f)

    qualifier = None
    name = d_token
    if "." in d_token:
        qualifier, name = d_token.split(".", 1)

    # A where-local of f takes priority for unqualified names.
    local_hit = None if qualifier is not None else _where_local(mod, name, f)
    table = build_symbol_table(project)
    if local_hit is None:
        try:
            ref = resolve_site(table, project, m, qualifier, name)
        except ResolveError as exc:
            raise _not_found(str(exc))
        td = project.modules[ref.module].decl(ref.name)
        if not isinstance(td, FunDecl):
            raise _not_found(f"{d_token} does not name a function definition")
        def_module, defn = ref.module, td
        target = (ref.module, ref.name)
    else:
        _, ei0, li0 = local_hit
        loc = fd.equations[ei0].locals[li0]
        def_module = m
        defn = FunDecl(loc.name, (Equation(tuple(PVar(p) for p in loc.params), loc.rhs),))
        target = None

    def wanted(e: Var, scope: frozenset[str]) -> bool:
        if qualifier is not None:
            return e.qualifier == qualifier
        if local_hit is not None:
            return e.qualifier is None and name not in scope
        ref2 = resolve_var(table, project, m, scope, e)
        return ref2 is not None and (ref2.module, ref2.name) == target

    # The first occurrence in document order, skipping the local's own body.
    local_of, own = (None, None) if local_hit is None else (local_hit[1], local_hit[2] + 1)
    spine_path = _first_spine(fd, name, wanted, local_of, own)
    if spine_path is None:
        raise _not_found(f"no occurrence of {d_token} in the body of {f}")
    _, args = app_spine(decl_expr_at(fd, spine_path))

    project, new_expr = _inline_definition(table, project, m, def_module, defn, args, d_token)
    mod = project.modules[m]
    di, fd = _fun_decl(mod, f)
    project = with_module(project, with_decl(mod, di, replace_decl_expr_at(fd, spine_path, new_expr)))
    return _finish(project)


def _first_spine(d: FunDecl, name: str, wanted, local_of=None, skip_slot=None) -> tuple[int, ...] | None:
    """The path of the application spine headed by the first variable called
    name for which wanted(variable, bound names) holds, in document order over
    the roots decl_expr_roots(d, local_of) yields but skip_slot, or None."""
    for ei, slot, root, bound in decl_expr_roots(d, local_of):
        if slot != skip_slot:
            for sub, e, scope, n in scoped_vars(root, bound):
                if e.name == name and wanted(e, scope):
                    return (ei, slot) + sub[:len(sub) - n]
    return None


def fold_top_level(project: Project, f: str, m: str) -> Project:
    """Replace every instance of f's RHS (outside f itself) by a call to f."""
    mod, _, d = _function(project, m, f)
    eq, params = _plain_equation(d, f)

    matcher = InstanceMatcher(build_symbol_table(project), params, m)
    head = Var(f, qualifier=m)
    total = 0
    mods = {}
    importers = importers_of(project, m) if f in module_exports(mod) else frozenset()
    for mname in sorted({m, *importers}):
        modx = project.modules[mname]
        decls, folded = [], 0
        for dd in modx.decls:
            if not (mname == m and decl_name(dd) == f):
                dd, n = fold_instances_in_expr(matcher, eq.rhs, params, head, dd, mname)
                folded += n
            decls.append(dd)
        if folded:  # a module that folded nothing stays the same object
            mods[mname] = replace(modx, decls=tuple(decls))
            total += folded
    if not total:
        raise RefactorError("NotApplicable", f"no instance of {f}'s body found to fold")
    return _finish(rewritten(project, mods))


def generative_fold(project: Project, f: str, arg_count: int, m: str) -> Project:
    """Burstall-Darlington derivation: in the first declaration of m that
    carries a single-equation comment copy and applies f to arg_count
    arguments, unfold that application, beta-reduce the variable-only tuple
    positions, then fold instances of the commented body back into calls of
    the commented name, producing a recursive definition."""
    if arg_count < 1:
        raise RefactorError("NotApplicable", "an application has at least one argument")
    mod = _module(project, m)

    table = build_symbol_table(project)
    target = None
    for occ, ref in applications(table, project, m, f, arg_count):
        d = mod.decl(occ.decl)
        spec = _comment_spec(d)
        if spec is not None:
            target = (d, spec, occ.path, ref)
            break
    if target is None:
        raise _not_found(
            f"no commented declaration in {m} applies {f} to {arg_count} argument(s)"
        )
    d, spec, spine_path, ref = target
    spec_eq, spec_params = _plain_equation(spec, "the commented definition")

    # Unfold the targeted application, then drop variable-only case positions.
    _, args = app_spine(decl_expr_at(d, spine_path))
    td = project.modules[ref.module].decl(ref.name)
    if not isinstance(td, FunDecl):
        raise _not_found(f"{f} does not name a function definition")
    project2, new_expr = _inline_definition(table, project, m, ref.module, td, args, f)
    mod2 = project2.modules[m]
    di2, d2 = _fun_decl(mod2, d.name)
    d2 = replace_decl_expr_at(d2, spine_path, new_expr)
    d2 = _simplify_variable_positions(d2)
    project2 = with_module(project2, with_decl(mod2, di2, d2))

    # Fold phase against the commented body.
    matcher = InstanceMatcher(build_symbol_table(project2), spec_params, m)
    head = Var(spec.name, qualifier=m)
    d2, total = fold_instances_in_expr(matcher, spec_eq.rhs, spec_params, head, d2, m)
    if not total:
        raise RefactorError("NotApplicable", "nothing foldable after unfolding")
    project2 = with_module(project2, with_decl(mod2, di2, d2))
    return _finish(project2)


def _comment_spec(d: TopDecl | None) -> FunDecl | None:
    """The single-equation declaration d's attached comment spells, if any."""
    if not isinstance(d, FunDecl) or d.comment is None:
        return None
    try:
        spec = parse_decl(d.comment.text())
    except ParseError:
        return None
    if not isinstance(spec, FunDecl) or len(spec.equations) != 1:
        return None
    return spec


def _simplify_variable_positions(d: FunDecl) -> FunDecl:
    """Beta-reduce tuple-case positions matched by a plain variable in every
    branch, substituting the scrutinee component into the branch bodies."""

    def simplify(e: Expr) -> Expr:
        width = _tuple_case_width(e)
        if width is None:
            return e
        keep = [
            j for j in range(width)
            if not all(isinstance(b.pattern.items[j], PVar) for b in e.branches)  # type: ignore[union-attr]
        ]
        if len(keep) == width:
            return e
        bodies = [
            substitute_many(b.body, {
                b.pattern.items[j].name: e.scrutinee.items[j]  # type: ignore[union-attr]
                for j in range(width) if j not in keep
            })
            for b in e.branches
        ]
        return _narrow_case(e, keep, bodies)

    out = map_decl_roots(d, lambda root, _: _map_below_lets(root, simplify))
    assert isinstance(out, FunDecl)
    return out


def _tuple_case_width(case: Expr) -> int | None:
    """The width of a case on a tuple whose every branch pattern is a tuple
    of that width; None for any other expression."""
    if not isinstance(case, Case) or not isinstance(case.scrutinee, Tuple):
        return None
    width = len(case.scrutinee.items)
    if all(isinstance(b.pattern, PTuple) and len(b.pattern.items) == width for b in case.branches):
        return width
    return None


def _narrow_case(case: Case, keep: list[int], bodies: list[Expr]) -> Expr:
    """The tuple case cut down to the positions keep, with new branch bodies;
    with no position left nothing is scrutinised and the first body wins."""
    if not keep:
        return bodies[0]

    def pick(items: tuple, wrap):
        return items[keep[0]] if len(keep) == 1 else wrap(tuple(items[k] for k in keep))

    branches = tuple(
        CaseBranch(pick(b.pattern.items, PTuple), body)  # type: ignore[union-attr]
        for b, body in zip(case.branches, bodies)
    )
    return Case(pick(case.scrutinee.items, Tuple), branches)  # type: ignore[union-attr]


def _map_below_lets(e: Expr, fn) -> Expr:
    """Apply fn to what an expression's outer lets scope over."""
    if isinstance(e, Let):
        return Let(e.bindings, _map_below_lets(e.body, fn))
    return fn(e)


# ---------------------------------------------------------------------------
# removal and hygiene

def remove_def(project: Project, f: str, m: str) -> Project:
    """Delete a top-level definition that is used nowhere else."""
    mod, _, _ = _function(project, m, f)
    user = next(readers_of(build_symbol_table(project), project, (m, f), skip=f), None)
    if user is not None:
        raise RefactorError("StillUsed", f"{f} is still used in {user[0]}.{user[1].name}")
    return _finish(with_module(project, _without_decl(mod, f)))


def remove_local_def(project: Project, d_name: str, f: str, m: str) -> Project:
    """Delete an unused where-local of f."""
    mod, di, d = _function(project, m, f)
    _, ei, li = _where_local(mod, d_name, f, f"{f} has no local definition {d_name}")
    if any(
        d_name in free_vars(root) - bound
        for _, slot, root, bound in decl_expr_roots(d, ei) if slot != li + 1
    ):
        raise RefactorError("StillUsed", f"{d_name} is still used inside {f}")
    d = with_equation(d, ei, with_local(d.equations[ei], li, None))
    project = with_module(project, with_decl(mod, di, d))
    return _finish(project)


def clean_imports(project: Project, m: str) -> Project:
    """Drop imports from which nothing is referenced."""
    mod = _module(project, m)
    unused = set(unused_imports(project, m))
    if not unused:
        return project
    project = with_module(
        project, replace(mod, imports=tuple(i for i in mod.imports if i not in unused))
    )
    return _finish(project)


def rm_from_exports(project: Project, f: str, m: str) -> Project:
    """Remove f from m's explicit export list; f must not be used elsewhere."""
    mod = _module(project, m)
    if mod.exports is None or f not in mod.exports:
        raise _not_found(f"{m} does not explicitly export {f}")
    user = next((r for r in readers_of(build_symbol_table(project), project, (m, f)) if r[0] != m), None)
    if user is not None:
        raise RefactorError("StillUsed", f"{f} is used in module {user[0]}")
    project = with_module(
        project, replace(mod, exports=tuple(n for n in mod.exports if n != f))
    )
    return _finish(project)


# ---------------------------------------------------------------------------
# case simplification

def simplify_case_pattern(project: Project, f: str, m: str) -> Project:
    """Extract a common-variable tuple position of f's top-level case into a
    let binding around the narrowed case."""
    mod, di, d = _function(project, m, f)
    eq = _single_equation(d)

    def rewrite(e: Expr) -> Expr:
        case = _case_body(f, e)
        if not isinstance(case.scrutinee, Tuple):
            raise RefactorError("NotApplicable", "the case scrutinee is not a tuple")
        width = _tuple_case_width(case)
        if width is None:
            raise RefactorError("NotApplicable", "branch patterns are not matching tuples")
        for j in range(width):
            names = set()
            for b in case.branches:
                item = b.pattern.items[j]  # type: ignore[union-attr]
                names.add(item.name if isinstance(item, PVar) else None)
            if len(names) != 1 or None in names:
                continue
            y = names.pop()
            # The let binding is recursive and scopes over the narrowed case:
            # y free in any component (its own included) would be captured.
            if any(y in free_vars(item) for item in case.scrutinee.items):
                continue
            kept = [k for k in range(width) if k != j]
            narrowed = _narrow_case(case, kept, [b.body for b in case.branches])
            return Let((LetBinding(y, case.scrutinee.items[j]),), narrowed)
        raise RefactorError(
            "NotApplicable", "no position holds the same variable in every branch"
        )

    d = with_equation(d, 0, replace(eq, rhs=_map_below_lets(eq.rhs, rewrite)))
    project = with_module(project, with_decl(mod, di, d))
    return _finish(project)


def case_to_eq(project: Project, f: str, m: str, matched_arity: int) -> Project:
    """Turn `f x = case x of ...` (or the two-parameter pair form) into one
    equation per branch."""
    if matched_arity not in (1, 2):
        raise RefactorError("NotApplicable", "case-to-eq handles one or two parameters")
    mod, di, d = _function(project, m, f)
    eq, params = _plain_equation(d, f)
    if len(params) != matched_arity:
        raise RefactorError("NotApplicable", f"{f} must take exactly {matched_arity} parameter(s)")
    case = _case_body(f, eq.rhs)
    if matched_arity == 1 and case.scrutinee != Var(params[0]):
        raise RefactorError("NotApplicable", "the scrutinee is not the parameter variable")
    if matched_arity == 2 and case.scrutinee != Tuple(tuple(map(Var, params))):
        raise RefactorError("NotApplicable", "the scrutinee is not the tuple of the two parameters")
    new_eqs = []
    for b, (_, bound) in zip(case.branches, binder_children(case)[1:]):
        if matched_arity == 1:
            pats: tuple[Pattern, ...] = (b.pattern,)
        else:
            if not isinstance(b.pattern, PTuple) or len(b.pattern.items) != 2:
                raise RefactorError("NotApplicable", "branch patterns must be pairs")
            pats = b.pattern.items
        leaked = (set(params) & free_vars(b.body)).difference(bound)
        if leaked:
            raise RefactorError(
                "NotApplicable",
                f"branch body references the scrutinised parameter(s) {sorted(leaked)}",
            )
        new_eqs.append(Equation(pats, b.body))
    project = with_module(
        project, with_decl(mod, di, replace(d, equations=tuple(new_eqs)))
    )
    return _finish(project)


# ---------------------------------------------------------------------------
# comments

def duplicate_into_comment(project: Project, f: str, m: str) -> Project:
    """Attach a canonical copy of f's declaration as its comment block."""
    mod, di, d = _function(project, m, f)
    text = render_decl(d, with_comment=False)
    comment = CommentBlock(tuple(text.split("\n")))
    project = with_module(project, with_decl(mod, di, replace(d, comment=comment)))
    return _finish(project)


def rm_comment_before(project: Project, f: str, m: str) -> Project:
    mod, di, d = _function(project, m, f)
    if d.comment is None:
        raise _not_found(f"{f} has no attached comment")
    project = with_module(project, with_decl(mod, di, replace(d, comment=None)))
    return _finish(project)


# ---------------------------------------------------------------------------
# deduplication

def unify_alpha_equivalent(project: Project, keep: str, drop: str, m: str) -> Project:
    """Replace the alpha-equivalent definition drop by keep and delete it."""
    if keep == drop:
        raise _not_found("cannot unify a definition with itself")
    mod, _, keep_d = _function(project, m, keep)
    _, drop_d = _fun_decl(mod, drop)
    if not alpha_eq_decl(keep_d, drop_d):
        raise RefactorError(
            "PreconditionFailed", f"{keep} and {drop} are not alpha-equivalent"
        )
    after = with_module(project, _without_decl(mod, drop))
    return _finish(retarget_name(project, after, (m, drop), (m, keep)))
