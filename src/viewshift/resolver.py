"""Name resolution across a project.

Scoping rules: pattern variables, where-locals and let/case binders shadow
everything; at the top level a module sees its own declarations and the
exports of its imports as one scope, and a name visible from more than one
origin is ambiguous and must be qualified (this is what forces the
Client.eval / ConstMod.eval qualifications the transformations produce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .lang import (
    App, Case, ConApp, ConstructorDef, DataDecl, Expr, FunDecl, ModuleDef,
    PCon, PTuple, Pattern, Project, TopDecl, Var, app_spine, decl_expr_at,
    decl_name, decl_expr_roots, pattern_cons, walk_expr_scoped,
)


class ResolveError(Exception):
    def __init__(self, kind: str, module: str, name: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.module = module
        self.name = name


def _err(kind: str, module: str, name: str, message: str) -> ResolveError:
    return ResolveError(kind, module, name, message)


@dataclass(frozen=True)
class DefRef:
    module: str
    name: str
    kind: str  # "fun" | "type" | "con"


@dataclass(frozen=True)
class OccRef:
    """Position-free address of an occurrence: declaration plus child path."""
    module: str
    decl: str
    path: tuple[int, ...]


@dataclass
class SymbolTable:
    # per module: unqualified top-scope name -> list of DefRef candidates
    scopes: dict[str, dict[str, list[DefRef]]] = field(default_factory=dict)
    # per module: constructor name -> (DefRef, ConstructorDef)
    constructors: dict[str, dict[str, list[tuple[DefRef, ConstructorDef]]]] = field(default_factory=dict)

    def lookup(self, module: str, name: str) -> list[DefRef]:
        return self.scopes.get(module, {}).get(name, [])


# --- the per-module memo ---
#
# The AST is frozen and rewrites return unchanged modules as the same
# objects, so resolver results are remembered on the module object: in
# _own(mod) those read from mod alone, in imports_memo(project, mod) those
# that also read its imports. Nothing here can be configured.

def _own(mod: ModuleDef) -> dict:
    return mod.__dict__.setdefault("_own_memo", {})


def imports_memo(project: Project, mod: ModuleDef) -> dict:
    """The memo of results that read mod and the modules it imports; it
    holds while project.modules gives the same objects (`is`) for those."""
    mods = project.modules
    held = mod.__dict__.get("_imports_memo")
    if held is not None:
        for imp, seen in zip(mod.imports, held[0]):
            if mods.get(imp) is not seen:
                break
        else:
            return held[1]
    held = mod.__dict__["_imports_memo"] = (tuple(map(mods.get, mod.imports)), {})
    return held[1]


def mentioned_names(mod: ModuleDef) -> frozenset[str]:
    """Every variable name (qualified or not) the module's expressions use."""
    own = _own(mod)
    if "names" not in own:
        own["names"] = frozenset(
            e.name for d in mod.decls for _, _, root, _ in decl_expr_roots(d)
            for _, e, _ in walk_expr_scoped(root, frozenset()) if isinstance(e, Var)
        )
    return own["names"]


def module_names(mod: ModuleDef) -> frozenset[str]:
    """Every name the module declares (constructors included), binds or
    uses; a fresh name outside it clashes with nothing in the module."""
    own = _own(mod)
    if "all_names" not in own:
        out = set()
        for d in mod.decls:
            out.add(decl_name(d))
            if isinstance(d, DataDecl):
                out.update(c.name for c in d.constructors)
            for _, _, root, bound in decl_expr_roots(d):
                for _, e, scope in walk_expr_scoped(root, bound):
                    out |= scope
                    if isinstance(e, Var):
                        out.add(e.name)
        own["all_names"] = frozenset(out)
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
    the constructors among them. Unknown imports contribute nothing. The
    result is shared through the memo and must not be mutated."""
    mod = project.modules[mname]
    memo = imports_memo(project, mod)
    if "scope" not in memo:
        memo["scope"] = _scope_of(project, mod)
    return memo["scope"]


def _scope_of(
    project: Project, mod: ModuleDef
) -> tuple[dict[str, list[DefRef]], dict[str, list[tuple[DefRef, ConstructorDef]]]]:
    scope: dict[str, list[DefRef]] = {}
    cons: dict[str, list[tuple[DefRef, ConstructorDef]]] = {}

    def add(name: str, ref: DefRef, condef: Optional[ConstructorDef] = None):
        scope.setdefault(name, [])
        if ref not in scope[name]:
            scope[name].append(ref)
        if condef is not None:
            cons.setdefault(name, [])
            if (ref, condef) not in cons[name]:
                cons[name].append((ref, condef))

    def add_module(src: ModuleDef, visible: Optional[set[str]]):
        for d in src.decls:
            n = decl_name(d)
            if isinstance(d, DataDecl):
                if visible is None or n in visible:
                    add(n, DefRef(src.name, n, "type"))
                for c in d.constructors:
                    if visible is None or c.name in visible:
                        add(c.name, DefRef(src.name, c.name, "con"), c)
            else:
                if visible is None or n in visible:
                    add(n, DefRef(src.name, n, "fun"))

    add_module(mod, None)
    for imp in mod.imports:
        imported = project.modules.get(imp)
        if imported is not None:
            add_module(imported, module_exports(imported))
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


def build_symbol_table(project: Project) -> SymbolTable:
    table = SymbolTable()
    for mname, mod in project.modules.items():
        for imp in mod.imports:
            if imp not in project.modules:
                raise _err("UnresolvedName", mname, imp, f"module {mname} imports unknown module {imp}")
        own = _own(mod)
        if "distinct" not in own:
            _check_distinct(mod)
            own["distinct"] = True
    for mname in project.modules:
        table.scopes[mname], table.constructors[mname] = module_scope(project, mname)
    return table


def resolve_var(
    table: SymbolTable, project: Project, module: str, bound: frozenset[str], v: Var
) -> Optional[DefRef]:
    """Resolve one occurrence; None means locally bound. Raises on failure."""
    if v.qualifier is not None:
        target = project.modules.get(v.qualifier)
        if target is None:
            raise _err("UnresolvedName", module, v.name, f"unknown module {v.qualifier} in {v.qualifier}.{v.name}")
        if v.qualifier != module:
            mod = project.modules[module]
            if v.qualifier not in mod.imports:
                raise _err(
                    "UnresolvedName", module, v.name,
                    f"{module} does not import {v.qualifier} (needed by {v.qualifier}.{v.name})",
                )
            if v.name not in module_exports(target):
                raise _err(
                    "UnresolvedName", module, v.name,
                    f"{v.qualifier} does not export {v.name}",
                )
        elif target.decl(v.name) is None:
            raise _err("UnresolvedName", module, v.name, f"{module} does not define {v.name}")
        return DefRef(v.qualifier, v.name, "fun")
    if v.name in bound:
        return None
    candidates = table.lookup(module, v.name)
    if not candidates:
        raise _err("UnresolvedName", module, v.name, f"cannot resolve {v.name} in module {module}")
    if len(candidates) > 1:
        origins = ", ".join(c.module for c in candidates)
        raise _err(
            "AmbiguousName", module, v.name,
            f"{v.name} is ambiguous in module {module} (from {origins})",
        )
    return candidates[0]


def _resolve_constructor(
    table: SymbolTable, module: str, name: str
) -> tuple[DefRef, ConstructorDef]:
    candidates = table.constructors.get(module, {}).get(name, [])
    if not candidates:
        raise _err("UnresolvedName", module, name, f"unknown constructor {name} in module {module}")
    if len(candidates) > 1:
        raise _err("AmbiguousName", module, name, f"constructor {name} is ambiguous in module {module}")
    return candidates[0]


def _check_pattern(table: SymbolTable, module: str, p: Pattern):
    match p:
        case PCon(name, args, tupled):
            _, condef = _resolve_constructor(table, module, name)
            if condef.tupled != tupled:
                shape = "tupled" if condef.tupled else "curried"
                raise _err(
                    "UnresolvedName", module, name,
                    f"constructor {name} takes {shape} arguments",
                )
            expected = len(condef.arg_types)
            if len(args) != expected:
                raise _err(
                    "UnresolvedName", module, name,
                    f"constructor {name} expects {expected} argument pattern(s), got {len(args)}",
                )
            for sub in args:
                _check_pattern(table, module, sub)
        case PTuple(items):
            for sub in items:
                _check_pattern(table, module, sub)
        case _:
            pass


def _check_expr(table: SymbolTable, project: Project, module: str, root: Expr, bound: frozenset[str]):
    for _, e, scope in walk_expr_scoped(root, bound):
        match e:
            case Var(_, _):
                resolve_var(table, project, module, scope, e)
            case ConApp(name, args):
                _, condef = _resolve_constructor(table, module, name)
                if len(args) != condef.value_arity:
                    raise _err(
                        "UnresolvedName", module, name,
                        f"constructor {name} must be applied to {condef.value_arity} argument(s)",
                    )
            case Case(_, branches):
                for b in branches:
                    _check_pattern(table, module, b.pattern)
            case _:
                pass


def _check_module(table: SymbolTable, project: Project, mname: str):
    """The validation walk of one module: equation arities, patterns and
    every expression."""
    for d in project.modules[mname].decls:
        if isinstance(d, DataDecl):
            continue
        assert isinstance(d, FunDecl)
        arity = d.arity
        for eq in d.equations:
            if len(eq.patterns) != arity:
                raise _err(
                    "DuplicateDefinition", mname, d.name,
                    f"equations of {d.name} have different arities",
                )
            for p in eq.patterns:
                _check_pattern(table, mname, p)
        for _, _, root, bound in decl_expr_roots(d):
            _check_expr(table, project, mname, root, bound)


def resolve_project(project: Project) -> SymbolTable:
    """Validate every occurrence in the project; raises ResolveError. A
    module already validated under the same import objects is not walked
    again."""
    table = build_symbol_table(project)
    for mname, mod in project.modules.items():
        memo = imports_memo(project, mod)
        if "valid" not in memo:
            _check_module(table, project, mname)
            memo["valid"] = True
    return table


# --- reference queries ---
#
# Operations ask two questions of the resolver: which definitions does a
# declaration use (decl_refs), and which variables use a definition
# (uses_of). Both take the caller's table, so asking costs no extra build.

def decl_refs(table: SymbolTable, project: Project, module: str, d: TopDecl) -> Iterator[DefRef]:
    """Yield the definition of each use in declaration d of module: every
    global variable, resolved strictly; every constructor of a ConApp, a case
    pattern or an equation pattern; every type a data declaration names. A
    constructor or type name counts only when it has exactly one candidate."""
    def con(name: str):
        cands = table.constructors.get(module, {}).get(name, [])
        if len(cands) == 1:
            yield cands[0][0]

    if isinstance(d, DataDecl):
        for c in d.constructors:
            for tname in c.arg_types:
                refs = [r for r in table.lookup(module, tname) if r.kind == "type"]
                if len(refs) == 1:
                    yield refs[0]
        return
    assert isinstance(d, FunDecl)
    for eq in d.equations:
        for p in eq.patterns:
            for c in pattern_cons(p):
                yield from con(c)
    for _, _, root, bound in decl_expr_roots(d):
        for _, e, scope in walk_expr_scoped(root, bound):
            if isinstance(e, Var):
                ref = resolve_var(table, project, module, scope, e)
                if ref is not None:
                    yield ref
            elif isinstance(e, ConApp):
                yield from con(e.name)
            elif isinstance(e, Case):
                for b in e.branches:
                    for c in pattern_cons(b.pattern):
                        yield from con(c)


def uses_of(
    table: SymbolTable, project: Project, target: tuple[str, str]
) -> Iterator[tuple[OccRef, frozenset[str]]]:
    """Yield (occurrence, bound names) for each variable, in any module, that
    resolves to the top-level definition target = (module, name), recursive
    ones included; document order per module, modules in name order."""
    name = target[1]
    for mname in project.module_names():
        if name not in mentioned_names(project.modules[mname]):
            continue
        for d in project.modules[mname].decls:
            for ei, slot, root, bound in decl_expr_roots(d):
                for sub, e, scope in walk_expr_scoped(root, bound):
                    # The name test first: resolving every variable of the
                    # project would cost more than the rest of the walk.
                    if not (isinstance(e, Var) and e.name == name):
                        continue
                    ref = resolve_var(table, project, mname, scope, e)
                    if ref is not None and (ref.module, ref.name) == target:
                        yield OccRef(mname, decl_name(d), (ei, slot) + sub), scope


def occurrences_of(project: Project, module: str, name: str) -> list[OccRef]:
    """Every occurrence referring to the top-level definition, recursive ones
    included; document order per module, modules in name order."""
    table = build_symbol_table(project)
    mod = project.modules.get(module)
    if mod is None or mod.decl(name) is None:
        raise _err("UnresolvedName", module, name, f"no top-level {name} in module {module}")
    return [occ for occ, _ in uses_of(table, project, (module, name))]


def applications(
    project: Project, module: str, fn: str, arg_count: int
) -> Iterator[tuple[OccRef, DefRef]]:
    """Applications in module of fn to exactly arg_count arguments, in
    document order, each with the definition its head resolves to: maximal
    application spines whose head resolves to the top-level definition fn
    names in module."""
    if arg_count < 1:
        raise _err("NoSuchApplication", module, fn, "an application has at least one argument")
    table = build_symbol_table(project)
    mod = project.modules.get(module)
    if mod is None:
        raise _err("UnresolvedName", module, fn, f"no module {module}")
    fn_target = None
    refs = table.lookup(module, fn)
    if len(refs) == 1:
        fn_target = (refs[0].module, refs[0].name)
    for d in mod.decls:
        for ei, slot, root, bound in decl_expr_roots(d):
            nodes: dict[tuple[int, ...], Expr] = {}
            for sub, e, scope in walk_expr_scoped(root, bound):
                nodes[sub] = e
                if not isinstance(e, App):
                    continue
                # Only maximal application spines count: skip the fn child
                # of an enclosing application.
                if sub and sub[-1] == 0 and isinstance(nodes.get(sub[:-1]), App):
                    continue
                head, args = app_spine(e)
                if len(args) != arg_count or not isinstance(head, Var) or head.name != fn:
                    continue
                try:
                    ref = resolve_var(table, project, module, scope, head)
                except ResolveError:
                    continue
                if ref is None:
                    continue  # a local binding, not the queried definition
                if fn_target is not None and (ref.module, ref.name) != fn_target:
                    continue
                yield OccRef(module, decl_name(d), (ei, slot) + sub), ref


def find_application(project: Project, module: str, fn: str, arg_count: int) -> OccRef:
    """First application (document order) of fn to exactly arg_count arguments."""
    hit = next(applications(project, module, fn, arg_count), None)
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


def deref(project: Project, ref: OccRef) -> Expr:
    """Fetch the expression node an OccRef addresses in the current project."""
    mod = project.modules[ref.module]
    d = mod.decl(ref.decl)
    if d is None:
        raise _err("UnresolvedName", ref.module, ref.decl, f"no declaration {ref.decl}")
    return decl_expr_at(d, ref.path)
