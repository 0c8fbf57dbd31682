"""Name resolution across a project.

Scoping rules: pattern variables, where-locals and let/case binders shadow
everything; at the top level a module sees its own declarations and the
exports of its imports as one scope, and a name visible from more than one
origin is ambiguous and must be qualified (this is what forces the
Client.eval / ConstMod.eval qualifications the transformations produce).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .lang import (
    App, Case, ConApp, ConstructorDef, DataDecl, Expr, FunDecl, Infix, Let, ModuleDef,
    PCon, PTuple, Pattern, Project, TopDecl, Tuple, Var, binder_children,
    changed_modules, decl_name, decl_expr_roots, record, scoped_vars,
)


class ResolveError(Exception):
    def __init__(self, kind: str, module: str, name: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.module = module
        self.name = name


def _err(kind: str, module: str, name: str, message: str) -> ResolveError:
    return ResolveError(kind, module, name, message)


@record
class DefRef:
    module: str
    name: str
    kind: str  # "fun" | "type" | "con"


@record
class OccRef:
    """Position-free address of an occurrence: declaration plus child path."""
    module: str
    decl: str
    path: tuple[int, ...]


class SymbolTable:
    def __init__(self, scopes: dict, constructors: dict):
        # per module: unqualified top-scope name -> list of DefRef candidates
        self.scopes: dict[str, dict[str, list[DefRef]]] = scopes
        # per module: constructor name -> (DefRef, ConstructorDef)
        self.constructors: dict[str, dict[str, list[tuple[DefRef, ConstructorDef]]]] = constructors

    def lookup(self, module: str, name: str) -> list[DefRef]:
        return self.scopes.get(module, {}).get(name, [])


# --- what the resolver knows ---
#
# The AST is frozen and rewrites return unchanged modules as the same
# objects. Results that read one module alone are kept on the module object
# (_own); those that also read its imports, on the project (project_state).
# Nothing here can be configured.

def _own(mod: ModuleDef) -> dict:
    return mod.__dict__.setdefault("_own_memo", {})


def mentioned_names(mod: ModuleDef) -> frozenset[str]:
    """Every variable name the module's expressions read from its top-level
    scope: free names, and the bare names of qualified ones."""
    own = _own(mod)
    if "names" not in own:
        own["names"] = frozenset(
            c[2] for d in mod.decls if isinstance(d, FunDecl)
            for c in decl_reads(d).checks if c[0] == "var"
        )
    return own["names"]


def has_droppable(mod: ModuleDef) -> bool:
    """Whether some declaration of mod has a qualifier that minimising could
    drop (DeclReads.droppable): a module without one is minimal already."""
    own = _own(mod)
    if "droppable" not in own:
        own["droppable"] = any(isinstance(d, FunDecl) and decl_reads(d).droppable for d in mod.decls)
    return own["droppable"]


def module_names(mod: ModuleDef) -> frozenset[str]:
    """Every name the module declares (constructors included), binds or
    uses; a fresh name outside it clashes with nothing in the module. Read
    from each declaration's remembered reads, without a walk of its own."""
    own = _own(mod)
    if "all_names" not in own:
        own["all_names"] = frozenset().union(*(
            decl_reads(d).names if isinstance(d, FunDecl)
            else {d.name, *(c.name for c in d.constructors)}  # type: ignore[union-attr]
            for d in mod.decls
        ))
    return own["all_names"]


def module_exports(mod: ModuleDef) -> frozenset[str]:
    """Names the module makes visible to importers.

    Without an explicit export list everything is exported; exporting a data
    type name also exports its constructors.
    """
    own = _own(mod)
    if "exports" not in own:
        listed = mod.exports
        names = {decl_name(d) for d in mod.decls} if listed is None else set(listed)
        for d in mod.decls:
            if isinstance(d, DataDecl) and (listed is None or d.name in listed):
                names.update(c.name for c in d.constructors)
        own["exports"] = frozenset(names)
    return own["exports"]


def decl_index(mod: ModuleDef) -> dict[str, TopDecl]:
    """Each name the module declares -> the declaration mod.decl finds."""
    own = _own(mod)
    if "index" not in own:
        index: dict[str, TopDecl] = {}
        for d in mod.decls:
            index.setdefault(decl_name(d), d)
        own["index"] = index
    return own["index"]


def module_scope(
    project: Project, mname: str
) -> tuple[dict[str, list[DefRef]], dict[str, list[tuple[DefRef, ConstructorDef]]]]:
    """The top-level scope of one module: each name its own declarations and
    its imports' exports make visible, with every candidate definition, and
    the constructors among them. The result is shared by the project's
    table and must not be mutated."""
    table = project_state(project).table
    return table.scopes[mname], table.constructors[mname]


def _contributions(mod: ModuleDef) -> tuple[tuple[str, DefRef, Optional[ConstructorDef]], ...]:
    """(name, definition, constructor or None) for each name mod declares,
    in declaration order: what its declarations add to a scope."""
    own = _own(mod)
    if "contributions" not in own:
        out: list[tuple[str, DefRef, Optional[ConstructorDef]]] = []
        for d in mod.decls:
            if isinstance(d, DataDecl):
                out.append((d.name, DefRef(mod.name, d.name, "type"), None))
                out.extend((c.name, DefRef(mod.name, c.name, "con"), c) for c in d.constructors)
            else:
                out.append((d.name, DefRef(mod.name, d.name, "fun"), None))
        own["contributions"] = tuple(out)
    return own["contributions"]


def module_interface(
    mod: ModuleDef
) -> tuple[frozenset[str], tuple[tuple[str, DefRef, Optional[ConstructorDef]], ...]]:
    """What importers see of mod: its export set, which a qualified name is
    checked against, and its contributions whose names it exports. An
    importer's scope and validity depend on mod through this alone."""
    own = _own(mod)
    if "interface" not in own:
        exports = module_exports(mod)
        own["interface"] = exports, tuple(c for c in _contributions(mod) if c[0] in exports)
    return own["interface"]


def _scope_of(
    project: Project, mod: ModuleDef
) -> tuple[dict[str, list[DefRef]], dict[str, list[tuple[DefRef, ConstructorDef]]]]:
    scope: dict[str, list[DefRef]] = {}
    cons: dict[str, list[tuple[DefRef, ConstructorDef]]] = {}
    # each import known: project_state checks first
    for part in (_contributions(mod), *(module_interface(project.modules[imp])[1] for imp in mod.imports)):
        for name, ref, condef in part:
            refs = scope.setdefault(name, [])
            if ref not in refs:
                refs.append(ref)
            if condef is not None:
                pairs = cons.setdefault(name, [])
                if (ref, condef) not in pairs:
                    pairs.append((ref, condef))
    return scope, cons


def _check_distinct(mod: ModuleDef):
    """No name is defined twice in mod, constructors included."""
    seen: set[str] = set()
    for d in mod.decls:
        names = [decl_name(d)]
        if isinstance(d, DataDecl):
            names += [c.name for c in d.constructors]
        for n in names:
            if n in seen:
                raise _err("DuplicateDefinition", mod.name, n, f"{n} defined twice in module {mod.name}")
            seen.add(n)


def _in_module_order(project: Project, names: Iterable[str], fn: Callable[[str], object]):
    """fn(name) for each of names, in any order. When one raises
    ResolveError, fn runs again over names in project order, so the error
    raised is the one a pass in that order meets first."""
    try:
        for mname in names:
            fn(mname)
    except ResolveError:
        for mname in [m for m in project.modules if m in names]:
            fn(mname)
        raise


class ProjectState:
    """What the resolver knows of one project: its table, each module's
    importers and the modules still to validate and to minimise. unchecked
    maps each module still to validate to None, for all its declarations,
    or to the ids of the declarations new since it was last validated,
    when its scope was kept. found is what the evaluator last found of its
    entries' modules (_entry_modules): (entries, entry -> modules, modules
    changed since), or None. replaced names the modules replaced since a
    reader last set it (the script engine sets it to the empty set after
    each step), or is None when no ancestor's state was known."""

    def __init__(self, table: SymbolTable, importers: dict[str, frozenset[str]],
                 unchecked: dict[str, Optional[frozenset[int]]], unminimised: set[str],
                 found: Optional[tuple] = None, replaced: Optional[frozenset[str]] = None):
        self.table, self.importers, self.unchecked, self.unminimised = table, importers, unchecked, unminimised
        self.found, self.replaced = found, replaced


def project_state(project: Project) -> ProjectState:
    """The state of project, derived on its first request and kept on the
    project object. It starts from the nearest ancestor (lang.rewritten)
    whose state is known. A module is changed when a rewrite on the way
    replaced its object (`is`). A module is scoped again when its own-scope
    inputs differ from the ancestor's: its contributions, its imports or
    an import's interface (module_interface), so the importers of a changed
    module are scoped again only when its interface changed. A module
    scoped again is validated in full; a changed module whose scope is kept
    validates only its new declaration objects. The changed and the
    re-scoped modules become pending; without a known ancestor every module
    is. A derivation that scopes nothing again shares the ancestor's table,
    one that changes no import shares its importer map. The link to the
    parent is dropped once used."""
    held = project.__dict__.get("_state")
    if held is not None:
        return held
    base, replaced = project, set()
    while "_state" not in base.__dict__ and "_parent" in base.__dict__:
        base, names = base.__dict__["_parent"]
        replaced.update(names)
    mods, old = project.modules, base.__dict__.get("_state")
    if old is None:
        old, was, changed = ProjectState(SymbolTable({}, {}), {}, {}, set()), {}, set(mods)
    else:
        was, changed = base.modules, changed_modules(base.modules, mods, replaced)
    importers = old.importers
    for mname in changed:
        prior = was.get(mname)
        for imp in set(prior.imports if prior else ()) ^ set(mods[mname].imports):
            if importers is old.importers:
                importers = dict(importers)
            importers[imp] = importers.get(imp, frozenset()) ^ {mname}
    rescoped: set[str] = set().union(*(
        importers.get(m, ()) for m in changed
        if m not in was or module_interface(was[m]) != module_interface(mods[m])))
    unchecked = dict(old.unchecked)
    for mname in changed - rescoped:
        prior, mod = was.get(mname), mods[mname]
        if prior is None or prior.imports != mod.imports or _contributions(prior) != _contributions(mod):
            rescoped.add(mname)
        elif (todo := unchecked.get(mname, frozenset())) is not None:
            kept = {id(d) for d in prior.decls}
            unchecked[mname] = todo | {id(d) for d in mod.decls if id(d) not in kept}
    unchecked.update(dict.fromkeys(rescoped))

    def rescope(mname: str):
        mod = mods[mname]
        for imp in mod.imports:
            if imp not in mods:
                raise _err("UnresolvedName", mname, imp, f"module {mname} imports unknown module {imp}")
        own = _own(mod)
        if "distinct" not in own:
            _check_distinct(mod)
            own["distinct"] = True
        table.scopes[mname], table.constructors[mname] = _scope_of(project, mod)

    table = old.table
    if rescoped:
        table = SymbolTable(dict(table.scopes), dict(table.constructors))
        _in_module_order(project, rescoped, rescope)
    found = old.found and (*old.found[:2], old.found[2] | changed)
    replaced = None if old.replaced is None else old.replaced | changed
    state = project.__dict__["_state"] = ProjectState(
        table, importers, unchecked, old.unminimised | changed | rescoped, found, replaced)
    project.__dict__.pop("_parent", None)
    return state


def importers_of(project: Project, mname: str) -> frozenset[str]:
    """The modules of project that import module mname."""
    return project_state(project).importers.get(mname, frozenset())


def build_symbol_table(project: Project) -> SymbolTable:
    """The project's table (project_state), shared: it must not be mutated."""
    return project_state(project).table


def resolve_var(
    table: SymbolTable, project: Project, module: str, bound: frozenset[str], v: Var
) -> Optional[DefRef]:
    """Resolve one occurrence; None means locally bound. Raises on failure."""
    if v.qualifier is None and v.name in bound:
        return None
    return resolve_site(table, project, module, v.qualifier, v.name)


def resolve_site(
    table: SymbolTable, project: Project, module: str, qualifier: Optional[str], name: str
) -> DefRef:
    """The definition the global site (module, qualifier, name) denotes: a
    bare name's one candidate in the module's scope, a qualified name's
    definition in the module it names. Raises ResolveError where it denotes
    none. The validation, the evaluator and the certificate all read a site
    through this one function, so they cannot disagree on what it denotes."""
    if qualifier is None:
        candidates = table.lookup(module, name)
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise _err("UnresolvedName", module, name, f"cannot resolve {name} in module {module}")
        origins = ", ".join(c.module for c in candidates)
        raise _err(
            "AmbiguousName", module, name,
            f"{name} is ambiguous in module {module} (from {origins})",
        )
    target = project.modules.get(qualifier)
    if target is None:
        raise _err("UnresolvedName", module, name, f"unknown module {qualifier} in {qualifier}.{name}")
    if qualifier != module:
        if qualifier not in project.modules[module].imports:
            raise _err(
                "UnresolvedName", module, name,
                f"{module} does not import {qualifier} (needed by {qualifier}.{name})",
            )
        if name not in module_exports(target):
            raise _err("UnresolvedName", module, name, f"{qualifier} does not export {name}")
    elif target.decl(name) is None:
        raise _err("UnresolvedName", module, name, f"{module} does not define {name}")
    return DefRef(qualifier, name, "fun")


def _resolve_constructor(
    table: SymbolTable, module: str, name: str
) -> tuple[DefRef, ConstructorDef]:
    candidates = table.constructors.get(module, {}).get(name, [])
    if not candidates:
        raise _err("UnresolvedName", module, name, f"unknown constructor {name} in module {module}")
    if len(candidates) > 1:
        raise _err("AmbiguousName", module, name, f"constructor {name} is ambiguous in module {module}")
    return candidates[0]


def _pattern_checks(p: Pattern, checks: dict):
    """The checks of pattern p: each constructor, then its argument patterns."""
    if isinstance(p, PCon):
        checks[("pcon", p.name, len(p.args), p.tupled)] = None
        for sub in p.args:
            _pattern_checks(sub, checks)
    elif isinstance(p, PTuple):
        for sub in p.items:
            _pattern_checks(sub, checks)


_ARITY = ("arity",)  # the check that fails when a declaration's equations disagree


@record
class DeclReads:
    """What a declaration reads from outside itself.

    checks: each distinct check its validation makes, in the order a walk of
    the declaration first meets it: ("var", qualifier, name) for a variable
    not bound locally, ("con", name, arguments) for a constructor
    application, ("pcon", name, argument patterns, tupled) for a
    constructor pattern, and _ARITY where an equation's arity differs.
    droppable: (qualifier, name) of each qualified variable whose bare name
    is not bound where it occurs, so that minimising could drop its
    qualifier.
    names: every name the declaration declares, binds or uses."""
    checks: tuple[tuple, ...]
    droppable: tuple[tuple[str, str], ...]
    names: frozenset[str]

    def mentions(self, name: str) -> bool:
        """Whether a variable not bound locally, qualified or not, is called name."""
        return any(c[0] == "var" and c[2] == name for c in self.checks)


def decl_reads(d: FunDecl) -> DeclReads:
    """The reads of d, found by one walk on first request and kept on the
    declaration object: they depend on d alone, and the AST is frozen."""
    held = d.__dict__.get("_reads")
    if held is None:
        held = d.__dict__["_reads"] = _collect_reads(d)
    return held


def _collect_reads(d: FunDecl) -> DeclReads:
    checks: dict[tuple, None] = {}  # ordered set: first occurrence wins
    droppable: dict[tuple[str, str], None] = {}
    names = {d.name}
    arity = d.arity
    for eq in d.equations:
        if len(eq.patterns) != arity:
            checks[_ARITY] = None
        for p in eq.patterns:
            _pattern_checks(p, checks)
    # Every new declaration is walked here, so the walk is a loop of its own:
    # pre-order in document order over a stack of (node, names bound at it),
    # children pushed last-first, with no paths.
    stack: list[tuple[Expr, frozenset[str]]] = []
    push, pop = stack.append, stack.pop
    for _, _, root, bound in decl_expr_roots(d):
        names |= bound
        push((root, bound))
        while stack:
            e, scope = pop()
            kind = type(e)  # the node classes are final
            if kind is Var:
                if e.qualifier is not None:
                    checks[("var", e.qualifier, e.name)] = None
                    if e.name not in scope:
                        droppable[e.qualifier, e.name] = None
                elif e.name not in scope:
                    checks[("var", None, e.name)] = None
            elif kind is App:
                push((e.arg, scope))
                push((e.fn, scope))
            elif kind is Infix:
                push((e.rhs, scope))
                push((e.lhs, scope))
            elif kind is ConApp or kind is Tuple:
                if kind is ConApp:
                    kids = e.args
                    checks[("con", e.name, len(kids))] = None
                else:
                    kids = e.items
                for kid in reversed(kids):
                    push((kid, scope))
            elif kind is Case or kind is Let:
                if kind is Case:
                    for b in e.branches:
                        _pattern_checks(b.pattern, checks)
                for kid, binds in reversed(binder_children(e)):
                    names.update(binds)
                    push((kid, scope.union(binds) if binds else scope))
    # a variable that no check names is bound, and came in with its binder
    names.update(c[2] for c in checks if c[0] == "var")
    return DeclReads(tuple(checks), tuple(droppable), frozenset(names))


def _check_decl(table: SymbolTable, project: Project, mname: str, d: FunDecl):
    """The validation of one declaration in module mname: its checks, in
    order. A walk raises at the first occurrence whose check fails, which
    is the first occurrence of the first failing check, so the error is the
    one a walk of d would raise."""
    for check in decl_reads(d).checks:
        kind = check[0]
        if kind == "var":
            resolve_site(table, project, mname, check[1], check[2])
        elif kind == "con":
            _, name, nargs = check
            _, condef = _resolve_constructor(table, mname, name)
            if nargs != condef.value_arity:
                raise _err(
                    "UnresolvedName", mname, name,
                    f"constructor {name} must be applied to {condef.value_arity} argument(s)",
                )
        elif kind == "pcon":
            _, name, nargs, tupled = check
            _, condef = _resolve_constructor(table, mname, name)
            if condef.tupled != tupled:
                shape = "tupled" if condef.tupled else "curried"
                raise _err(
                    "UnresolvedName", mname, name,
                    f"constructor {name} takes {shape} arguments",
                )
            expected = len(condef.arg_types)
            if nargs != expected:
                raise _err(
                    "UnresolvedName", mname, name,
                    f"constructor {name} expects {expected} argument pattern(s), got {nargs}",
                )
        else:
            raise _err(
                "DuplicateDefinition", mname, d.name,
                f"equations of {d.name} have different arities",
            )


def _check_module(table: SymbolTable, project: Project, mname: str):
    """The validation of one module: each function declaration's checks, or
    only the pending ones (ProjectState.unchecked). Only a declaration
    object never seen before is walked."""
    todo = project_state(project).unchecked.get(mname)
    for d in project.modules[mname].decls:
        if isinstance(d, FunDecl) and (todo is None or id(d) in todo):
            _check_decl(table, project, mname, d)


def resolve_project(project: Project) -> SymbolTable:
    """Validate every occurrence in the project; raises ResolveError. Only
    the modules its state has pending are checked, each declaration by its
    remembered reads, so the error is a full walk's (_in_module_order)."""
    table = build_symbol_table(project)
    pending = project_state(project).unchecked
    _in_module_order(project, pending, lambda mname: _check_module(table, project, mname))
    pending.clear()
    return table


# --- reference queries ---
#
# Operations ask two questions of the resolver: which definitions does a
# declaration use (decl_refs), and which declarations use a definition
# (readers_of). Both are answered from remembered reads, without a walk,
# and take the caller's table, so asking costs no extra build. Only a
# caller that needs the position of a use walks the readers.

def decl_refs(table: SymbolTable, project: Project, module: str, d: TopDecl) -> Iterator[DefRef]:
    """Yield the definition of each distinct use in declaration d of module:
    every global variable, resolved strictly; every constructor of a ConApp,
    a case pattern or an equation pattern; every type a data declaration
    names. A constructor or type name counts only when it has exactly one
    candidate."""
    if isinstance(d, DataDecl):
        for c in d.constructors:
            for tname in c.arg_types:
                refs = [r for r in table.lookup(module, tname) if r.kind == "type"]
                if len(refs) == 1:
                    yield refs[0]
        return
    assert isinstance(d, FunDecl)
    for check in decl_reads(d).checks:
        if check[0] == "var":
            yield resolve_site(table, project, module, check[1], check[2])
        elif check[0] in ("con", "pcon"):
            cands = table.constructors.get(module, {}).get(check[1], [])
            if len(cands) == 1:
                yield cands[0][0]


def readers_of(
    table: SymbolTable, project: Project, target: tuple[str, str], skip: Optional[str] = None
) -> Iterator[tuple[str, FunDecl, frozenset[Optional[str]]]]:
    """Yield (module, declaration, qualifiers) for each function declaration
    that reads the top-level definition target, modules in name order: one of
    its reads (decl_reads, the variables not bound locally) resolves to
    target, under each qualifier in qualifiers (None: bare). skip names a
    declaration of target's module to leave out. Only target's module and its
    importers can name it; nothing is walked, and each distinct read is
    resolved once per module."""
    home, name = target
    for mname in sorted({home, *importers_of(project, home)}):
        mod = project.modules.get(mname)
        if mod is None or name not in mentioned_names(mod):
            continue
        hits: dict[Optional[str], bool] = {}  # qualifier -> whether it reads target
        for d in mod.decls:
            if isinstance(d, DataDecl) or (mname == home and d.name == skip):
                continue
            quals = set()
            for check in decl_reads(d).checks:
                if check[0] == "var" and check[2] == name:
                    q = check[1]
                    if q not in hits:
                        ref = resolve_site(table, project, mname, q, name)
                        hits[q] = (ref.module, ref.name) == target
                    if hits[q]:
                        quals.add(q)
            if quals:
                yield mname, d, frozenset(quals)


def occurrences_of(project: Project, module: str, name: str) -> list[OccRef]:
    """Every occurrence referring to the top-level definition, recursive ones
    included; document order per module, modules in name order. Only the
    declarations readers_of names are walked."""
    table = build_symbol_table(project)
    mod = project.modules.get(module)
    if mod is None or mod.decl(name) is None:
        raise _err("UnresolvedName", module, name, f"no top-level {name} in module {module}")
    return [
        OccRef(mname, d.name, (ei, slot) + sub)
        for mname, d, quals in readers_of(table, project, (module, name))
        for ei, slot, root, bound in decl_expr_roots(d)
        for sub, e, scope, _ in scoped_vars(root, bound)
        if e.name == name and e.qualifier in quals and (e.qualifier is not None or name not in scope)
    ]


def applications(
    table: SymbolTable, project: Project, module: str, fn: str, arg_count: int
) -> Iterator[tuple[OccRef, DefRef]]:
    """Applications in module of fn to exactly arg_count arguments, in
    document order, each with the definition its head resolves to: maximal
    application spines whose head resolves to the top-level definition fn
    names in module. Only declarations whose reads name fn are walked."""
    if arg_count < 1:
        raise _err("NoSuchApplication", module, fn, "an application has at least one argument")
    mod = project.modules.get(module)
    if mod is None:
        raise _err("UnresolvedName", module, fn, f"no module {module}")
    fn_target = None
    refs = table.lookup(module, fn)
    if len(refs) == 1:
        fn_target = (refs[0].module, refs[0].name)
    for d in mod.decls:
        if isinstance(d, DataDecl) or not decl_reads(d).mentions(fn):
            continue
        for ei, slot, root, bound in decl_expr_roots(d):
            for sub, head, scope, n in scoped_vars(root, bound):
                if n != arg_count or head.name != fn:
                    continue
                try:
                    ref = resolve_var(table, project, module, scope, head)
                except ResolveError:
                    continue
                # None: a local binding, not the queried definition
                if ref is not None and fn_target in (None, (ref.module, ref.name)):
                    yield OccRef(module, d.name, (ei, slot) + sub[:len(sub) - n]), ref


def find_application(project: Project, module: str, fn: str, arg_count: int) -> OccRef:
    """First application (document order) of fn to exactly arg_count arguments."""
    hit = next(applications(build_symbol_table(project), project, module, fn, arg_count), None)
    if hit is None:
        raise _err(
            "NoSuchApplication", module, fn,
            f"no application of {fn} to {arg_count} argument(s) in module {module}",
        )
    return hit[0]


def unused_imports(project: Project, module: str) -> list[str]:
    """Imports from which no identifier (qualified or not), constructor or
    type name is referenced."""
    table = build_symbol_table(project)
    mod = project.modules[module]
    used = {ref.module for d in mod.decls for ref in decl_refs(table, project, module, d)}
    return [imp for imp in mod.imports if imp not in used]
