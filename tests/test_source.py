"""Checks on the package source itself."""

import importlib
import inspect
import re
import tokenize
from pathlib import Path

import pytest

import comblevy

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
