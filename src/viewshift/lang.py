"""AST for the object language: a small functional language with modules.

The language has exactly the constructs needed by the transformation corpus:
module headers with optional export lists, imports, data declarations,
function equations with where-locals, case/let/tuples, integer and string
literals, the infix operators + * ++, and the builtins show and print.
Declarations may carry an attached line-comment block.

All nodes are immutable records (`record`); every transformation builds new
trees.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

BUILTINS = ("show", "print")
KEYWORDS = ("module", "where", "import", "data", "case", "of", "let", "in")

INFIX_OPS = {
    # op -> (precedence, associativity)
    "++": (5, "right"),
    "+": (6, "left"),
    "*": (7, "left"),
}


# --- records ---

_set = object.__setattr__


def _inits(_0=None, _1=None, _2=None, _3=None, _4=None):
    """An __init__ of each arity up to five, setting the fields named _0... in order."""
    def i0(self): pass
    def i1(self, a): _set(self, _0, a)
    def i2(self, a, b): _set(self, _0, a); _set(self, _1, b)
    def i3(self, a, b, c): _set(self, _0, a); _set(self, _1, b); _set(self, _2, c)
    def i4(self, a, b, c, d): _set(self, _0, a); _set(self, _1, b); _set(self, _2, c); _set(self, _3, d)
    def i5(self, a, b, c, d, e): _set(self, _0, a); _set(self, _1, b); _set(self, _2, c); _set(self, _3, d); _set(self, _4, e)
    return i0, i1, i2, i3, i4, i5


def _keys():
    """An __eq__ and a __hash__ of each arity up to five, over the fields
    named _0... in order; record renames those attributes in their code."""
    def e0(s, o): return True if o.__class__ is s.__class__ else NotImplemented
    def e1(s, o): return (s._0,) == (o._0,) if o.__class__ is s.__class__ else NotImplemented
    def e2(s, o): return (s._0, s._1) == (o._0, o._1) if o.__class__ is s.__class__ else NotImplemented
    def e3(s, o): return (s._0, s._1, s._2) == (o._0, o._1, o._2) if o.__class__ is s.__class__ else NotImplemented
    def e4(s, o): return (s._0, s._1, s._2, s._3) == (o._0, o._1, o._2, o._3) if o.__class__ is s.__class__ else NotImplemented
    def e5(s, o): return (s._0, s._1, s._2, s._3, s._4) == (o._0, o._1, o._2, o._3, o._4) if o.__class__ is s.__class__ else NotImplemented
    def h0(s): return hash(())
    def h1(s): return hash((s._0,))
    def h2(s): return hash((s._0, s._1))
    def h3(s): return hash((s._0, s._1, s._2))
    def h4(s): return hash((s._0, s._1, s._2, s._3))
    def h5(s): return hash((s._0, s._1, s._2, s._3, s._4))
    return (e0, e1, e2, e3, e4, e5), (h0, h1, h2, h3, h4, h5)


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def _repr(self) -> str:
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """cls as an immutable record of the fields it annotates, in order (a
    class attribute is a default), built by position or keyword, equal only
    within its class, hashed, printed and matched as a frozen dataclass is.
    Nothing is compiled: __init__ is an _inits closure with renamed
    parameters, and __eq__ and __hash__ are _keys functions with renamed
    attributes, which read the fields as plain attribute loads. Instances
    keep a __dict__ for the memos kept on AST nodes."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    init = _inits(*fields)[len(fields)]
    init.__code__ = init.__code__.replace(co_varnames=("self",) + fields)
    init.__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    eqs, hashes = _keys()
    renamed = {f"_{i}": f for i, f in enumerate(fields)}
    for fn in (eqs[len(fields)], hashes[len(fields)]):
        fn.__code__ = fn.__code__.replace(co_names=tuple(renamed.get(n, n) for n in fn.__code__.co_names))
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, eqs[len(fields)], hashes[len(fields)], _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__ = fields
    return cls


def replace(obj, **changes):
    """The record obj with the fields named in changes replaced."""
    return obj.__class__(**{f: getattr(obj, f) for f in obj.__match_args__} | changes)


# --- expressions ---

class Expr:
    pass


@record
class Var(Expr):
    name: str
    qualifier: Optional[str] = None


@record
class IntLit(Expr):
    value: int


@record
class StrLit(Expr):
    value: str


@record
class Builtin(Expr):
    name: str  # "show" | "print"


@record
class ConApp(Expr):
    """Saturated constructor application; a tupled constructor takes one Tuple arg."""
    name: str
    args: tuple[Expr, ...] = ()


@record
class App(Expr):
    fn: Expr
    arg: Expr


@record
class Infix(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@record
class Tuple(Expr):
    items: tuple[Expr, ...]  # arity >= 2


@record
class CaseBranch:
    pattern: "Pattern"
    body: Expr


@record
class Case(Expr):
    scrutinee: Expr
    branches: tuple[CaseBranch, ...]


@record
class LetBinding:
    name: str
    rhs: Expr


@record
class Let(Expr):
    bindings: tuple[LetBinding, ...]
    body: Expr


# --- patterns ---

class Pattern:
    pass


@record
class PVar(Pattern):
    name: str


@record
class PInt(Pattern):
    value: int


@record
class PWild(Pattern):
    pass


@record
class PCon(Pattern):
    """Constructor pattern; `tupled` records `Add (e1, e2)` vs curried `Const i`."""
    name: str
    args: tuple[Pattern, ...] = ()
    tupled: bool = False


@record
class PTuple(Pattern):
    items: tuple[Pattern, ...]


# --- declarations and modules ---

@record
class CommentBlock:
    lines: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines)


@record
class ConstructorDef:
    name: str
    arg_types: tuple[str, ...] = ()
    tupled: bool = False

    @property
    def value_arity(self) -> int:
        """Number of syntactic arguments a saturated application takes."""
        return 1 if self.tupled else len(self.arg_types)


@record
class LocalDef:
    name: str
    params: tuple[str, ...]
    rhs: Expr


@record
class Equation:
    patterns: tuple[Pattern, ...]
    rhs: Expr
    locals: tuple[LocalDef, ...] = ()


class TopDecl:
    pass


@record
class DataDecl(TopDecl):
    name: str
    constructors: tuple[ConstructorDef, ...]
    comment: Optional[CommentBlock] = None


@record
class FunDecl(TopDecl):
    """A function or value binding; a value is a single zero-pattern equation."""
    name: str
    equations: tuple[Equation, ...]
    comment: Optional[CommentBlock] = None

    @property
    def arity(self) -> int:
        return len(self.equations[0].patterns)


@record
class ModuleDef:
    name: str
    exports: Optional[tuple[str, ...]]  # None means everything is exported
    imports: tuple[str, ...]
    decls: tuple[TopDecl, ...]

    def decl(self, name: str) -> Optional[TopDecl]:
        for d in self.decls:
            if decl_name(d) == name:
                return d
        return None


@record
class Project:
    modules: dict[str, ModuleDef]

    def module_names(self) -> list[str]:
        return sorted(self.modules)


def decl_name(d: TopDecl) -> str:
    return d.name  # type: ignore[union-attr]


def rewritten(parent: Project, replaced: dict[str, ModuleDef]) -> Project:
    """parent with the modules of replaced put in by name, new names last.
    The result records its parent and the names replaced, from which the
    resolver derives what it knows of it (resolver.project_state)."""
    out = Project({**parent.modules, **replaced})
    out.__dict__["_parent"] = parent, tuple(replaced)
    return out


def changed_modules(was: dict[str, ModuleDef], now: dict[str, ModuleDef], names: Iterable[str]) -> set[str]:
    """Those of names whose module object differs (`is`) between was and now."""
    return {m for m in names if was.get(m) is not now.get(m)}


def with_module(project: Project, mod: ModuleDef) -> Project:
    return rewritten(project, {mod.name: mod})


def with_decl(mod: ModuleDef, index: int, d: TopDecl) -> ModuleDef:
    return replace(mod, decls=mod.decls[:index] + (d,) + mod.decls[index + 1:])


def with_equation(d: FunDecl, ei: int, eq: Equation) -> FunDecl:
    """d with its equation ei replaced by eq."""
    return replace(d, equations=d.equations[:ei] + (eq,) + d.equations[ei + 1:])


def with_local(eq: Equation, li: int, loc: Optional[LocalDef]) -> Equation:
    """eq with its where-local li replaced by loc, or removed when loc is None."""
    kept = () if loc is None else (loc,)
    return replace(eq, locals=eq.locals[:li] + kept + eq.locals[li + 1:])


# --- structural helpers ---

def expr_children(e: Expr) -> tuple[Expr, ...]:
    match e:
        case ConApp(_, args):
            return args
        case App(fn, arg):
            return (fn, arg)
        case Infix(_, lhs, rhs):
            return (lhs, rhs)
        case Tuple(items):
            return items
        case Case(scrutinee, branches):
            return (scrutinee,) + tuple(b.body for b in branches)
        case Let(bindings, body):
            return tuple(b.rhs for b in bindings) + (body,)
        case _:
            return ()


def with_expr_children(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    match e:
        case ConApp(name, _):
            return ConApp(name, kids)
        case App(_, _):
            return App(kids[0], kids[1])
        case Infix(op, _, _):
            return Infix(op, kids[0], kids[1])
        case Tuple(_):
            return Tuple(kids)
        case Case() | Let():
            return with_binder_children(e, [(k, n) for k, (_, n) in zip(kids, binder_children(e))])
        case _:
            return e


def pattern_vars(p: Pattern) -> tuple[str, ...]:
    match p:
        case PVar(name):
            return (name,)
        case PCon(_, args, _) | PTuple(args):
            out: tuple[str, ...] = ()
            for sub in args:
                out += pattern_vars(sub)
            return out
        case _:
            return ()


def equation_scope(eq: Equation) -> tuple[str, ...]:
    """The names an equation binds over its rhs, in binding order: the
    pattern variables, then the where-locals."""
    pvars = tuple(v for p in eq.patterns for v in pattern_vars(p))
    return pvars + tuple(loc.name for loc in eq.locals)


_LEAVES = (Var, IntLit, StrLit, Builtin)


def binder_children(e: Expr) -> list[tuple[Expr, tuple[str, ...]]]:
    """expr_children(e), each paired with the names e binds over it, in
    binding order.

    This is the one statement of binder scoping inside expressions: a case
    branch binds its pattern variables over its body, and a let binds its
    names (recursively) over every right-hand side and the body. The scoped
    walks and rewrites, free variables, the paired walk of alpha-equivalence
    and fold matching (paired_children), capture-avoiding substitution (with
    with_binder_children) and the resolver's reads pass all read it; only
    the evaluator's compiler and the reference oracle keep their own.
    """
    if isinstance(e, Case):
        return [(e.scrutinee, ())] + [(b.body, pattern_vars(b.pattern)) for b in e.branches]
    if isinstance(e, Let):
        names = tuple(b.name for b in e.bindings)
        return [(b.rhs, names) for b in e.bindings] + [(e.body, names)]
    return [(kid, ()) for kid in expr_children(e)]


def with_binder_children(e: Expr, kids: list[tuple[Expr, tuple[str, ...]]]) -> Expr:
    """e rebuilt from kids shaped as binder_children(e) gives them: each new
    child with the names e is to bind over it. A case branch's pattern
    variables are renamed, in order, to the names paired with its body, and
    a let's bindings to the names paired with its body."""
    if isinstance(e, Case):
        return Case(kids[0][0], tuple(
            CaseBranch(_rename_pattern(b.pattern, dict(zip(pattern_vars(b.pattern), names))), body)
            for b, (body, names) in zip(e.branches, kids[1:])
        ))
    if isinstance(e, Let):
        body, names = kids[-1]
        return Let(tuple(LetBinding(n, rhs) for n, (rhs, _) in zip(names, kids)), body)
    return with_expr_children(e, tuple(kid for kid, _ in kids))


def _rename_pattern(p: Pattern, renaming: dict[str, str]) -> Pattern:
    """p with its variables renamed as renaming says, all at once."""
    match p:
        case PVar(name) if name in renaming:
            return PVar(renaming[name])
        case PCon(name, args, tupled):
            return PCon(name, tuple(_rename_pattern(a, renaming) for a in args), tupled)
        case PTuple(items):
            return PTuple(tuple(_rename_pattern(i, renaming) for i in items))
        case _:
            return p


def var_slot(v: Var, scope: tuple[str, ...]) -> Optional[int]:
    """The slot of scope (names in binding order) that v refers to: the last
    one carrying its name. None for a qualified or unbound variable, since a
    qualifier always targets a top-level name, never a binder."""
    if v.qualifier is not None or v.name not in scope:
        return None
    return len(scope) - 1 - scope[::-1].index(v.name)


def pattern_shape(p: Pattern) -> Pattern:
    """p with every variable renamed alike: two patterns of equal shape
    match the same values and bind as many variables, in the same order."""
    match p:
        case PVar(_):
            return PVar("")
        case PCon(name, args, tupled):
            return PCon(name, tuple(map(pattern_shape, args)), tupled)
        case PTuple(items):
            return PTuple(tuple(map(pattern_shape, items)))
        case _:
            return p


def _head(e: Expr):
    """What distinguishes e from a node of its kind besides its children and
    binder names; a variable's name is left to the caller's scopes."""
    match e:
        case IntLit(value) | StrLit(value):
            return value
        case Builtin(name) | ConApp(name, _) | Infix(name, _, _):
            return name
        case Case(_, branches):
            return tuple(pattern_shape(b.pattern) for b in branches)
        case _:
            return None


def paired_children(
    a: Expr, b: Expr
) -> Optional[list[tuple[Expr, Expr, tuple[str, ...], tuple[str, ...]]]]:
    """The children of a and b paired, each pair with the names a and b bind
    over it (binder_children), or None when the nodes differ in more than
    their children and binder names: node kind, constructor name, operator,
    literal, arity and pattern shape all count. Two variables pair with no
    children; whether they correspond is for the caller to say."""
    if type(a) is not type(b) or _head(a) != _head(b):
        return None
    kids_a, kids_b = binder_children(a), binder_children(b)
    if len(kids_a) != len(kids_b):
        return None
    return [(x, y, nx, ny) for (x, nx), (y, ny) in zip(kids_a, kids_b)]


def scoped_vars(e: Expr, bound: frozenset[str]) -> Iterator[tuple[tuple[int, ...], Var, frozenset[str], int]]:
    """Each variable of e in document order, as (path, variable, names bound
    at it, n): paths index expr_children, and n counts the arguments of the
    maximal application spine the variable heads, at path[:len(path) - n]."""
    # children are pushed last-first to pop in document order; the node classes are final
    stack: list[tuple[Expr, frozenset[str], tuple[int, ...], int]] = [(e, bound, (), 0)]
    push, pop = stack.append, stack.pop
    while stack:
        e, bound, path, n = pop()
        kind = type(e)
        if kind is Var:
            yield path, e, bound, n
        elif kind is App:
            i = 0  # the outermost argument is last, at path + (1,)
            while type(e) is App:
                push((e.arg, bound, path + (0,) * i + (1,), 0))
                e, i = e.fn, i + 1
            push((e, bound, path + (0,) * i, i))
        elif kind is Infix:
            push((e.rhs, bound, path + (1,), 0))
            push((e.lhs, bound, path + (0,), 0))
        elif kind is ConApp or kind is Tuple:
            kids = e.args if kind is ConApp else e.items
            for i in range(len(kids) - 1, -1, -1):
                push((kids[i], bound, path + (i,), 0))
        elif kind is Case or kind is Let:
            kids = binder_children(e)
            for i in range(len(kids) - 1, -1, -1):
                kid, names = kids[i]
                push((kid, bound.union(names) if names else bound, path + (i,), 0))


def map_scoped(e: Expr, bound: frozenset[str], fn) -> Expr:
    """Bottom-up rewrite: fn(node, bound names) is applied to every node after
    its children. A node whose children all come back unchanged is passed to
    fn as the same object, so an identity fn returns e itself."""
    if isinstance(e, _LEAVES):  # most nodes; skips binder_children's match
        return fn(e, bound)
    new_kids = []
    changed = False
    for kid, names in binder_children(e):
        new = map_scoped(kid, bound.union(names) if names else bound, fn)
        changed = changed or new is not kid
        new_kids.append(new)
    if changed:
        e = with_expr_children(e, tuple(new_kids))
    return fn(e, bound)


def map_vars(e: Expr, bound: frozenset[str], fn) -> Expr:
    """map_scoped(e, bound, g) where g(node, bound names) is fn on a variable
    and the node itself on any other: fn sees only the variables, and a node
    with no changed variable beneath it comes back as the same object. Like
    map_scoped it takes one Python frame per level of nesting, so every
    child is rewritten by a direct call, never inside a comprehension."""
    kind = type(e)  # the node classes are final
    if kind is Var:
        return fn(e, bound)
    if kind is App:
        f, a = map_vars(e.fn, bound, fn), map_vars(e.arg, bound, fn)
        return e if f is e.fn and a is e.arg else App(f, a)
    if kind is Infix:
        lhs, rhs = map_vars(e.lhs, bound, fn), map_vars(e.rhs, bound, fn)
        return e if lhs is e.lhs and rhs is e.rhs else Infix(e.op, lhs, rhs)
    if kind is ConApp or kind is Tuple:
        items, changed = [], False
        for kid in (e.args if kind is ConApp else e.items):
            items.append(new := map_vars(kid, bound, fn))
            changed = changed or new is not kid
        if not changed:
            return e
        return ConApp(e.name, tuple(items)) if kind is ConApp else Tuple(tuple(items))
    if kind is Case or kind is Let:
        kids, changed = [], False
        for kid, names in binder_children(e):
            kids.append((new := map_vars(kid, bound.union(names) if names else bound, fn), names))
            changed = changed or new is not kid
        return with_binder_children(e, kids) if changed else e
    return e


def replace_expr_at(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    kids = list(expr_children(e))
    kids[path[0]] = replace_expr_at(kids[path[0]], path[1:], new)
    return with_expr_children(e, tuple(kids))


# Declaration-level paths: (equation index, slot, *expr path) where slot 0 is
# the equation RHS and slot k+1 is the rhs of the k-th where-local.
#
# The names bound at a root follow the evaluator, where where-locals shadow
# the equation's pattern variables: a top-level name is shadowed by the
# pattern variables, the where-local names and, in a local's rhs, that
# local's parameters; a where-local is shadowed only by those parameters.

def decl_expr_roots(
    d: TopDecl, local_of: Optional[int] = None
) -> Iterator[tuple[int, int, Expr, frozenset[str]]]:
    """Yield (equation index, slot, root expr, names bound at the root).

    The bound names are those that shadow a top-level name. With
    local_of=ei the target is a where-local of equation ei: only that
    equation's roots are yielded, with the names that shadow the local.
    """
    if not isinstance(d, FunDecl):
        return
    for ei, eq in enumerate(d.equations):
        if local_of is None:
            base = frozenset(equation_scope(eq))
        elif ei == local_of:
            base = frozenset()
        else:
            continue
        yield ei, 0, eq.rhs, base
        for li, loc in enumerate(eq.locals):
            yield ei, li + 1, loc.rhs, base | frozenset(loc.params)


def map_decl_roots(d: TopDecl, fn, local_of: Optional[int] = None) -> TopDecl:
    """Replace each root that decl_expr_roots(d, local_of) yields by
    fn(root, bound), building d anew once; d itself comes back when no root
    changed."""
    equations = None
    for ei, slot, root, bound in decl_expr_roots(d, local_of):
        new = fn(root, bound)
        if new is not root:
            equations = equations or list(d.equations)  # type: ignore[union-attr]
            eq = equations[ei]
            if slot:
                equations[ei] = with_local(eq, slot - 1, replace(eq.locals[slot - 1], rhs=new))
            else:
                equations[ei] = replace(eq, rhs=new)
    return d if equations is None else replace(d, equations=tuple(equations))


def decl_expr_at(d: TopDecl, path: tuple[int, ...]) -> Expr:
    ei, slot = path[0], path[1]
    eq = d.equations[ei]  # type: ignore[union-attr]
    e = eq.rhs if slot == 0 else eq.locals[slot - 1].rhs
    for i in path[2:]:
        e = expr_children(e)[i]
    return e


def replace_decl_expr_at(d: FunDecl, path: tuple[int, ...], new: Expr) -> FunDecl:
    ei, slot = path[0], path[1]
    eq = d.equations[ei]
    root = replace_expr_at(decl_expr_at(d, path[:2]), path[2:], new)
    if slot:
        eq = with_local(eq, slot - 1, replace(eq.locals[slot - 1], rhs=root))
    else:
        eq = replace(eq, rhs=root)
    return with_equation(d, ei, eq)


def app_spine(e: Expr) -> tuple[Expr, list[Expr]]:
    """Decompose left-nested applications into (head, args)."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def make_app(head: Expr, args: list[Expr]) -> Expr:
    for a in args:
        head = App(head, a)
    return head
