"""Seeded workload generators for the benchmark.

Each workload is a set of projects written to disk plus the scripts that
convert them and the verdicts a conversion must pass. The program under test
only ever sees the generated project directories and script texts.

    paper   every shipped script on its shipped fixture (the seed is unused)
    padded  pfun/pdata plus PAD_MODULES unrelated, seeded padding modules
    wide    a generated expression-problem project, WIDE_CONS constructors x
            WIDE_FUNS functions, converted forward and back by templated scripts

Seeds vary literals, operators and which neighbour a declaration calls; they
never vary the size or shape of a workload, so runs on different seeds
measure the same amount of work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from viewshift import corpus
from viewshift.parse import parse_module
from viewshift.render import render_module

PAD_MODULES = 80
WIDE_CONS = 5
WIDE_FUNS = 2
WIDE_DEPTH = 12

# Constructor names of the wide workload; the first carries an Int, the rest
# are tupled binary nodes. Initials double as the fold's parameter names.
_WIDE_CON_NAMES = ("Lit", "Add", "Mul", "Pair", "Seq", "Tag", "Join", "Cat")


@dataclass
class Job:
    """One script run in a conversion.

    source names the input project, or is None to take the previous job's
    result (a round trip). golden names a project the result must be
    alpha-equivalent to; observations are the texts its entries must print,
    or oracle names a project whose reference-evaluator observations the
    result must reproduce.
    """

    script: str
    text: str
    source: Optional[str]
    golden: Optional[str] = None
    observations: Optional[dict[str, str]] = None
    oracle: Optional[str] = None


@dataclass
class Workload:
    name: str
    root: str
    projects: dict[str, str] = field(default_factory=dict)  # name -> directory
    # the first job converts a project on disk; the cold CLI child runs it too
    jobs: list[Job] = field(default_factory=list)

    def inputs(self) -> list[str]:
        """Directories a conversion reads its inputs from."""
        return [self.projects[j.source] for j in self.jobs if j.source is not None]

    def script_path(self, job: Job) -> str:
        return os.path.join(self.root, f"{job.script}.vs")


def canonical(text: str, filename: str) -> str:
    """Canonical rendering of a module text; render -> parse -> render must
    be a fixed point, or the generator produced something the renderer
    normalises and goldens would drift."""
    once = render_module(parse_module(text, filename=filename))
    twice = render_module(parse_module(once, filename=filename))
    if once != twice:
        raise ValueError(f"{filename} does not render to a fixed point")
    return once


def _write_modules(directory: str, modules: dict[str, str]):
    os.makedirs(directory, exist_ok=True)
    for name, text in modules.items():
        with open(os.path.join(directory, f"{name}.mfn"), "w", encoding="utf-8") as fh:
            fh.write(canonical(text, f"{name}.mfn"))


def extract_fixture(fixture: str, directory: str, script: Optional[str] = None) -> Optional[str]:
    """Materialise a shipped fixture with the program's own `corpus extract`;
    returns the text of the named script file it wrote, if any."""
    corpus.extract(fixture, directory)
    if script is None:
        return None
    with open(os.path.join(directory, script), encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# paper

def paper(root: str, seed: int) -> Workload:
    del seed  # the shipped corpus is fixed
    wl = Workload("paper", root)
    for fx in ("pfun", "pdata"):
        wl.projects[fx] = os.path.join(root, fx)
        extract_fixture(fx, wl.projects[fx])
    scripts = os.path.join(root, "shipped")
    texts = {
        "forward": extract_fixture("forward-script", scripts, "forward.vs"),
        "reverse": extract_fixture("reverse-script", scripts, "reverse.vs"),
    }
    for fx, script in (("scenario-mult", "reverse-mult"), ("scenario-derive", "forward-derive")):
        wl.projects[fx] = os.path.join(root, fx)
        texts[script] = extract_fixture(fx, wl.projects[fx], f"{script}.vs")
    obs = corpus.OBSERVATIONS
    wl.jobs = [
        Job("forward", texts["forward"], "pfun", golden="pdata", observations=obs["pdata"]),
        Job("reverse", texts["reverse"], "pdata", golden="pfun", observations=obs["pfun"]),
        Job("reverse-mult", texts["reverse-mult"], "scenario-mult",
            observations=obs["scenario-mult"]),
        Job("forward-derive", texts["forward-derive"], "scenario-derive",
            observations=obs["scenario-derive"]),
    ]
    _write_scripts(wl)
    return wl


def _write_scripts(wl: Workload):
    for job in wl.jobs:
        with open(wl.script_path(job), "w", encoding="utf-8") as fh:
            fh.write(job.text)


# ---------------------------------------------------------------------------
# padded

def padding_modules(rng: random.Random, count: int) -> dict[str, str]:
    """count modules of three declarations each; module i imports module i-1
    and calls into it, and nothing imports the padding."""
    mods: dict[str, str] = {}
    width = len(str(count))
    for i in range(count):
        me = f"Pad{i:0{width}d}"
        p = f"pad{i:0{width}d}"
        op1, op2, op3 = (rng.choice("+*") for _ in range(3))
        k1, k2, k3, k4 = (rng.randint(1, 9) for _ in range(4))
        lines = [f"module {me} where", ""]
        if i == 0:
            callee_a, callee_b = f"{k2}", f"{k4}"
        else:
            q = f"pad{i - 1:0{width}d}"
            lines += [f"import Pad{i - 1:0{width}d}", ""]
            callee_a = f"{q}{rng.choice('ac')} {k2}"
            callee_b = f"{q}b"
        lines += [
            f"{p}a x = x {op1} {k1}",
            "",
            f"{p}b = {callee_a} {op2} {k3}",
            "",
            f"{p}c y = let z = {p}a y in z {op3} {callee_b}",
        ]
        mods[me] = "\n".join(lines) + "\n"
    return mods


def padded(root: str, seed: int, pad: int = PAD_MODULES) -> Workload:
    wl = Workload("padded", root)
    padding = padding_modules(random.Random(f"padded:{seed}"), pad)
    for fx in ("pfun", "pdata"):
        wl.projects[fx] = os.path.join(root, fx)
        extract_fixture(fx, wl.projects[fx])
        _write_modules(wl.projects[fx], padding)
    scripts = os.path.join(root, "shipped")
    wl.jobs = [
        Job("forward", extract_fixture("forward-script", scripts, "forward.vs"), "pfun",
            golden="pdata", observations=corpus.OBSERVATIONS["pdata"]),
        Job("reverse", extract_fixture("reverse-script", scripts, "reverse.vs"), "pdata",
            golden="pfun", observations=corpus.OBSERVATIONS["pfun"]),
    ]
    _write_scripts(wl)
    return wl


# ---------------------------------------------------------------------------
# wide: the expression problem, N constructors x M functions

@dataclass(frozen=True)
class Fun:
    name: str
    module: str
    fold: str
    textual: bool  # string-valued (like toString) rather than Int-valued
    entry: str  # the Client entry applying the function to e1


def _wide_shape(n_cons: int, n_funs: int):
    cons = _WIDE_CON_NAMES[:n_cons]
    funs = [
        Fun(f"fn{j}", f"Fn{j}Mod", f"fold{j}", j % 2 == 0, f"r{2 * j - 1}")
        for j in range(1, n_funs + 1)
    ]
    return cons, funs


def _wide_origin(rng: random.Random, cons, funs, depth: int) -> dict[str, str]:
    mods: dict[str, str] = {}
    data = " | ".join([f"{cons[0]} Int"] + [f"{c} (Expr, Expr)" for c in cons[1:]])
    mods["Expr"] = f"module Expr where\n\ndata Expr = {data}\n"
    for f in funs:
        k = rng.randint(1, 9)
        if f.textual:
            eqs = [f"{f.name} ({cons[0]} i) = show (i + {k})"]
        else:
            eqs = [f"{f.name} ({cons[0]} i) = i {rng.choice('+*')} {k}"]
        for c in cons[1:]:
            if f.textual:
                sep = rng.choice(["+", "*", ",", "&", "|", ";"])
                body = f'{f.name} e1 ++ "{sep}" ++ {f.name} e2'
            else:
                body = f"{f.name} e1 {rng.choice('+*')} {f.name} e2 + {rng.randint(0, 9)}"
            eqs.append(f"{f.name} ({c} (e1, e2)) = {body}")
        mods[f.module] = f"module {f.module} where\n\nimport Expr\n\n" + "\n".join(eqs) + "\n"

    def nested(d: int) -> str:
        if d == 0:
            return f"{cons[0]} {rng.randint(1, 9)}"
        leaf = f"{cons[0]} {rng.randint(1, 9)}"
        inner = nested(d - 1)
        a, b = (leaf, inner) if rng.random() < 0.5 else (inner, leaf)
        return f"{rng.choice(cons[1:])} ({a}, {b})"

    client = ["module Client where", "", "import Expr"]
    client += [f"import {f.module}" for f in funs]
    client += ["", f"e1 = {nested(depth)}", "", f"e2 = {nested(depth)}"]
    for j, f in enumerate(funs, start=1):
        for n, e in ((2 * j - 1, "e1"), (2 * j, "e2")):
            use = f"{f.name} {e}" if f.textual else f"show ({f.name} {e})"
            client += ["", f"r{n} = print ({use})"]
    mods["Client"] = "\n".join(client) + "\n"
    return mods


def forward_script(cons, funs) -> str:
    """Function view -> constructor view, templated from forward.vs."""
    out = ["# function-centered view -> constructor-centered view"]
    arity = len(cons) + 1
    for j, f in enumerate(funs):
        fm, local = f.module, {c: f"{f.name}{c}" for c in cons}
        out += ["", f"# {f.name} chain"]
        out += [f"exhibit-function {f.name} {c} {local[c]} {fm}" for c in cons]
        for c in cons:
            if c == cons[0]:
                out.append(f"generalise {f.name} {c} {local[c]} {fm} 1 x tupled OtherType")
            else:
                out.append(f"generalise {f.name} {c} {local[c]} {fm} 2 y tupled RecType")
                out.append(f"generalise {f.name} {c} {local[c]} {fm} 1 x tupled RecType")
        out += [f"lift-def {f.name} {local[c]} {fm}" for c in cons]
        out += [f"generalise-ident {f.name} {fm} {local[c]} {c[0].lower()}" for c in cons]
        out += [
            f"rename-top-level {f.name} {fm} {f.fold}",
            f"new-def-fun-app {f.fold} {arity} {f.name} Client",
            f"generalise-ident {f.name} Client e1 x",
            f"lift-def {f.entry} {f.name} Client",
            f"fold-def {f.name} Client",
        ]
        gens = [f"{f.name}_gen"] + [f"{f.name}_gen_{k}" for k in range(1, len(cons))]
        out += [f"unfold-instance {g} {f.name} Client" for g in gens]
        out += [f"remove-def {g} {fm}" for g in gens]
        for c in cons:
            out.append(f"move-def {local[c]} {fm} {c}Mod")
            out.append(f"rename-top-level {local[c]} {c}Mod {f.name}")
        out.append(f"move-def {f.fold} {fm} Expr")
        if j < len(funs) - 1:
            out += ["clean-imports Client", f"clean-imports {fm}"]
    out += ["", "# the runs produce alpha-equivalent combinators; keep one"]
    out += [f"unify-alpha {funs[0].fold} {f.fold} Expr" for f in funs[1:]]
    out += ["clean-imports Client", f"clean-imports {funs[-1].module}"]
    return "\n".join(out) + "\n"


def reverse_script(cons, funs) -> str:
    """Constructor view -> function view, templated from reverse-mult.vs."""
    out = ["# constructor-centered view -> function-centered view"]
    fold = funs[0].fold
    for f in funs:
        out += [
            "",
            f"duplicate-into-comment {f.name} Client",
            f"generative-fold {fold} {len(cons) + 1} Client",
            f"rm-comment-before {f.name} Client",
        ]
        out += [f"unfold-instance {c}Mod.{f.name} {f.name} Client" for c in cons]
        out += [f"case-to-eq {f.name} Client", f"move-def {f.name} Client {f.module}"]
    out.append("")
    out += [f"remove-def {f.name} {c}Mod" for c in cons for f in funs]
    out += [f"remove-def {fold} Expr", "clean-imports Client"]
    out += [f"clean-imports {c}Mod" for c in cons]
    return "\n".join(out) + "\n"


def wide(
    root: str, seed: int, n_cons: int = WIDE_CONS, n_funs: int = WIDE_FUNS, depth: int = WIDE_DEPTH
) -> Workload:
    if not 2 <= n_cons <= len(_WIDE_CON_NAMES) or n_funs < 1:
        raise ValueError("wide needs 2..8 constructors and at least one function")
    wl = Workload("wide", root)
    cons, funs = _wide_shape(n_cons, n_funs)
    wl.projects["origin"] = os.path.join(root, "origin")
    _write_modules(wl.projects["origin"], _wide_origin(random.Random(f"wide:{seed}"), cons, funs, depth))
    wl.jobs = [
        Job("forward", forward_script(cons, funs), "origin", oracle="origin"),
        Job("reverse", reverse_script(cons, funs), None, golden="origin", oracle="origin"),
    ]
    _write_scripts(wl)
    return wl


GENERATORS = {"paper": paper, "padded": padded, "wide": wide}


def generate(name: str, root: str, seed: int) -> Workload:
    return GENERATORS[name](root, seed)
