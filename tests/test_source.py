"""Checks on the package source itself."""

import ast
import importlib
import inspect
import re
import tokenize
from pathlib import Path

import pytest

import comblevy
from comblevy import trajectory

# CPython's parser holds a module's tokens in one array, which doubles once
# it passes 8192 entries; past that, every process that compiles the package
# from source has a higher compile peak (about 0.44 MB for levy.py).
MAX_PARSER_TOKENS = 8192
# Tokens the tokenizer reports and the parser never sees.
NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
MODULES = sorted(Path(comblevy.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parser_tokens(path):
    with path.open("rb") as source:
        tokens = [tok for tok in tokenize.tokenize(source.readline) if tok.type not in NOT_PARSED]
    assert len(tokens) <= MAX_PARSER_TOKENS, f"{path.name}: {len(tokens)} parser tokens"


def test_no_module_imports_dataclasses():
    # the dataclass decorator compiles each class's methods when its module
    # is imported, a cost every process would pay again
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
        } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


# Every module but the entry point, which runs the CLI when imported.
MODULE_NAMES = [f"comblevy.{path.stem}" for path in MODULES if path.stem != "__main__"]
# Resource caps and tolerances are module constants, not parameters.
CONSTANT_PARAMETER = re.compile(r"cap|\w+_cap|tol|chunk")


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_star_import(name):
    # a stale __all__ entry, such as a renamed constant, fails here
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_public_functions_take_no_caps(name):
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", ()):
        obj = getattr(module, public)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters
            assert not [p for p in params if CONSTANT_PARAMETER.fullmatch(p)], f"{name}.{public}"


# The trajectory log's columns; the layout they share is decoded in one place.
LOG_COLUMNS = {"_bounds", "_cells"}
# The methods that write them (_begin, _extend), compare them (_log) and
# read them back (_block).
LOG_ACCESSORS = {"_begin", "_extend", "_block", "_log"}


def test_one_reader_of_the_trajectory_log():
    tree = ast.parse(Path(trajectory.__file__).read_text(encoding="utf-8"))

    def column_uses(node):
        return {
            use for use in ast.walk(node)
            if isinstance(use, ast.Attribute) and use.attr in LOG_COLUMNS
        }

    allowed = set().union(*(
        column_uses(node) for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in LOG_ACCESSORS
    ))
    stray = sorted(use.lineno for use in column_uses(tree) - allowed)
    assert not stray, f"trajectory.py reads the log's columns outside _block at lines {stray}"


def test_one_owner_of_the_orbit_partition():
    # the modules that group structures into orbits call orbits._orbit_groups
    # rather than running their own loop over orbit_members
    callers = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "orbit_members"
    }
    assert callers == {"orbits.py"}


def test_no_module_imports_inside_a_function():
    # a module's dependencies are read from its head, and a call pays no
    # import-system lookup
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inner = sorted(
            node.lineno
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
        )
        assert not inner, f"{path.name} imports inside a function at lines {inner}"


REPO = Path(__file__).resolve().parent.parent


def _names_used(tree: ast.Module) -> set[str]:
    """The names a module reads or looks up as attributes, each top-level
    definition's own name not counted inside it."""
    used = set()
    for top in tree.body:
        inner = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))
        }
        used |= inner - {getattr(top, "name", None)}
    return used


def test_every_public_name_has_a_use():
    # a public name that only tests call belongs in tests/helpers.py
    in_src = set().union(*(
        _names_used(ast.parse(path.read_text(encoding="utf-8")))
        for path in MODULES if path.name != "__init__.py"
    ))
    texts = [
        path.read_text(encoding="utf-8")
        for path in [REPO / "README.md", *REPO.glob("demos/*.py"), *REPO.glob("bench/*.py")]
    ]
    unused = [
        name for name in comblevy.__all__
        if name not in in_src and not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    assert not unused, f"public names used only by tests: {unused}"


def _exit_users(node, function=None) -> set:
    """The names of the functions around each use of ``_exit`` under
    ``node``; None for a use outside any function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    used = (
        isinstance(node, ast.Attribute) and node.attr == "_exit"
        or isinstance(node, ast.Name) and node.id == "_exit"
        or isinstance(node, ast.alias) and node.name == "_exit"
    )
    users = {function} if used else set()
    for child in ast.iter_child_nodes(node):
        users |= _exit_users(child, function)
    return users


def test_only_the_cli_exit_function_ends_the_process_early():
    # os._exit skips finalizers and exit handlers; the tests, the demos and
    # the benchmark's tracer run everything else in process
    users = {
        (path.name, function)
        for path in MODULES
        for function in _exit_users(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert users == {("cli.py", "run")}
