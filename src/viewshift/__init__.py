"""viewshift: mechanical conversion between a function-centered and a
constructor-centered architecture of the same program, built from
precondition-checked, behavior-preserving refactoring operations and
verified by an evaluator oracle and alpha-equivalence against goldens."""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule's public names. A submodule loads on the first read of it or of one of its names (PEP 562).
_NAMES = {
    "corpus": "FIXTURE_NAMES Fixture load_fixture",
    "evaluator": "EvalError Evaluator VCon VInt VOutput VStr VTuple Value evaluate observational_eq observe_entries",
    "lang": "Expr ModuleDef Pattern Project TopDecl",
    "names": "alpha_eq_decl alpha_eq_project free_vars fresh_name substitute",
    "parse": "ParseError parse_decl parse_expr parse_module parse_project",
    "refactorings": "RefactorError",
    "render": "render_decl render_expr render_module render_project write_project",
    "resolver": "ResolveError find_application occurrences_of resolve_project unused_imports",
    "rewrite": "",
    "script": "RunLog Script ScriptSyntaxError parse_script run_script",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = [*_HOME]


def __getattr__(name: str):
    if name in _NAMES:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
