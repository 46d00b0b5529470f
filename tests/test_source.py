"""Checks on the package source itself."""

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
