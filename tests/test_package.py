"""The package's public surface, and what importing it loads. Submodules load
on first use, so a caller that only parses and resolves pays for `lang`,
`parse` and `resolver` alone; the cold-import pins run in fresh interpreters,
so an eager import added later cannot undo that unseen."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import viewshift

SRC = str(Path(viewshift.__file__).resolve().parents[1])

# Each public name's home module: the surface the package has always exported.
HOMES = {
    "corpus": ("FIXTURE_NAMES", "Fixture", "load_fixture"),
    "evaluator": (
        "EvalError", "Evaluator", "VCon", "VInt", "VOutput", "VStr", "VTuple", "Value",
        "evaluate", "observational_eq", "observe_entries",
    ),
    "lang": ("Expr", "ModuleDef", "Pattern", "Project", "TopDecl"),
    "names": ("alpha_eq_decl", "alpha_eq_project", "free_vars", "fresh_name", "substitute"),
    "parse": ("ParseError", "parse_decl", "parse_expr", "parse_module", "parse_project"),
    "refactorings": ("RefactorError",),
    "render": ("render_decl", "render_expr", "render_module", "render_project", "write_project"),
    "resolver": ("ResolveError", "find_application", "occurrences_of", "resolve_project", "unused_imports"),
    "script": ("RunLog", "Script", "ScriptSyntaxError", "parse_script", "run_script"),
}
SUBMODULES = (*HOMES, "rewrite")


def _fresh(code: str, *args: str) -> str:
    """What a fresh interpreter prints after running code, with args in
    sys.argv[1:] and this src first on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n{code}", *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set[str]:
    out = _fresh(code + "\nprint(*(m for m in sys.modules if m.split('.')[0] == 'viewshift'))")
    return set(out.split())


def test_every_public_name_is_its_home_modules_object():
    assert len(viewshift.__all__) == 45
    assert sorted(viewshift.__all__) == sorted(n for names in HOMES.values() for n in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"viewshift.{module}")
        for name in names:
            assert getattr(viewshift, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    bound: dict = {}
    exec("from viewshift import *", bound)
    assert set(bound) - {"__builtins__"} == set(viewshift.__all__)
    assert all(bound[name] is getattr(viewshift, name) for name in viewshift.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        viewshift.no_such_name
    with pytest.raises(ImportError):
        exec("from viewshift import no_such_name", {})


def test_bare_import_exposes_every_submodule():
    code = "import viewshift\n" + "".join(
        f"print(viewshift.{m}.__name__)\n" for m in SUBMODULES
    )
    assert _fresh(code).split() == [f"viewshift.{m}" for m in SUBMODULES]


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import viewshift") == {"viewshift"}


def test_parse_and_resolve_load_only_their_modules():
    loaded = _loaded_after("from viewshift import parse_project, resolve_project")
    assert loaded == {"viewshift", "viewshift.lang", "viewshift.parse", "viewshift.resolver"}


def test_cli_import_leaves_corpus_and_reference_unloaded():
    loaded = _loaded_after("import viewshift.cli")
    assert "viewshift.script" in loaded
    assert not loaded & {"viewshift.corpus", "viewshift.reference"}


# Wraps the builtins that generate code, then loads what the benchmark's
# setup child and a checked CLI run load, and runs the CLI with sys.argv.
NO_CODEGEN = """
import builtins
called = []


def watched(name, real):
    def call(*args, **kwargs):
        # the import system itself compiles and runs each module's source
        if not sys._getframe(1).f_globals["__name__"].startswith(("importlib._bootstrap", "_frozen_importlib")):
            called.append(name)
        return real(*args, **kwargs)
    return call


for name in ("exec", "eval", "compile"):
    setattr(builtins, name, watched(name, getattr(builtins, name)))
from viewshift import parse_project, resolve_project
from viewshift.cli import main
assert main(sys.argv[1:]) == 0
print(*called, "dataclasses" in sys.modules)
"""


def test_checked_cli_run_generates_no_code_and_loads_no_dataclasses(tmp_path):
    from viewshift.corpus import extract

    extract("pfun", str(tmp_path / "pfun"))
    extract("forward-script", str(tmp_path / "scripts"))
    out = _fresh(NO_CODEGEN, "apply", str(tmp_path / "scripts" / "forward.vs"), str(tmp_path / "pfun"),
                 "--out", str(tmp_path / "out"), "--checked")
    assert out.splitlines()[-1] == "False"  # the CLI's own output comes first
