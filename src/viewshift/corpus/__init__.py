"""Golden corpus: the two architecture views, the transformation scripts,
per-step expected states, and the two evolution-scenario fixtures.

Fixtures ship inside the package and can be materialized to disk with the
CLI's `corpus extract` verb.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Optional

from ..lang import ModuleDef, Project
from ..parse import parse_module
from ..script import Script, parse_script

FIXTURE_NAMES = (
    "pfun",
    "pdata",
    "forward-script",
    "reverse-script",
    "step-states",
    "scenario-mult",
    "scenario-derive",
)

# Expected observations, frozen from hand evaluation of the corpus programs.
OBSERVATIONS = {
    "pfun": {"r1": "1+2", "r2": "3", "r3": "1+2+3", "r4": "6"},
    "pdata": {"r1": "1+2", "r2": "3", "r3": "1+2+3", "r4": "6"},
    "scenario-mult": {
        "r1": "1+2", "r2": "3", "r3": "1+2+3", "r4": "6", "r5": "6", "r6": "2*3",
    },
    "scenario-derive": {
        "r1": "1+2", "r2": "3", "r3": "1+2+3", "r4": "6", "r5": "3", "r6": "5",
    },
}

# Forward-script prefix lengths realizing each numbered step of the eval
# transformation (step number, cumulative command count).
FORWARD_EVAL_STEPS = (
    (1, 2), (2, 5), (3, 7), (4, 9), (5, 10), (6, 13),
    (7, 14), (8, 18), (9, 22), (10, 23), (11, 25),
)

_DIRS = {
    "pfun": "pfun",
    "pdata": "pdata",
    "scenario-mult": "scenario_mult",
    "scenario-derive": "scenario_derive",
}
_SCRIPTS = {
    "forward-script": ("scripts", "forward.vs"),
    "reverse-script": ("scripts", "reverse.vs"),
    "scenario-mult": ("scenario_mult", "reverse-mult.vs"),
    "scenario-derive": ("scenario_derive", "forward-derive.vs"),
}


class Fixture:
    def __init__(
        self,
        name: str,
        project: Optional[Project] = None,
        scripts: Optional[dict[str, Script]] = None,
        expected: Optional[dict[str, str]] = None,
        step_states: tuple[tuple[int, int, Project], ...] = (),
    ):
        self.name, self.project, self.step_states = name, project, step_states
        self.scripts = {} if scripts is None else scripts
        self.expected = {} if expected is None else expected


def _root():
    return resources.files(__package__)


def _read(*parts: str) -> str:
    node = _root()
    for p in parts:
        node = node / p
    return node.read_text(encoding="utf-8")


def _load_project(dirname: str) -> Project:
    modules: dict[str, ModuleDef] = {}
    node = _root() / dirname
    for entry in sorted(node.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".mfn"):
            mod = parse_module(entry.read_text(encoding="utf-8"), filename=entry.name)
            modules[mod.name] = mod
    return Project(modules)


def load_fixture(name: str) -> Fixture:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    fx = Fixture(name, expected=dict(OBSERVATIONS.get(name, {})))
    if name in _DIRS:
        fx.project = _load_project(_DIRS[name])
    if name in _SCRIPTS:
        d, f = _SCRIPTS[name]
        fx.scripts[f[:-3]] = parse_script(_read(d, f), name=f[:-3])
    if name == "forward-script":
        fx.expected = dict(OBSERVATIONS["pfun"])
    if name == "reverse-script":
        fx.expected = dict(OBSERVATIONS["pdata"])
    if name == "step-states":
        states = []
        for step_no, nsteps in FORWARD_EVAL_STEPS:
            states.append((step_no, nsteps, _load_project(f"step_states/step{step_no:02d}")))
        fx.step_states = tuple(states)
        fx.expected = dict(OBSERVATIONS["pfun"])
    return fx


def extract(name: str, out_dir: str):
    """Materialize a fixture's files into a directory."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    os.makedirs(out_dir, exist_ok=True)

    def copy_dir(src_dir: str, dst: str):
        os.makedirs(dst, exist_ok=True)
        node = _root() / src_dir
        for entry in sorted(node.iterdir(), key=lambda e: e.name):
            if entry.name.endswith((".mfn", ".vs")):
                with open(os.path.join(dst, entry.name), "w", encoding="utf-8") as fh:
                    fh.write(entry.read_text(encoding="utf-8"))

    if name in _DIRS:
        copy_dir(_DIRS[name], out_dir)
    if name == "forward-script":
        with open(os.path.join(out_dir, "forward.vs"), "w", encoding="utf-8") as fh:
            fh.write(_read("scripts", "forward.vs"))
    if name == "reverse-script":
        with open(os.path.join(out_dir, "reverse.vs"), "w", encoding="utf-8") as fh:
            fh.write(_read("scripts", "reverse.vs"))
    if name == "step-states":
        for step_no, _ in FORWARD_EVAL_STEPS:
            copy_dir(f"step_states/step{step_no:02d}", os.path.join(out_dir, f"step{step_no:02d}"))
