"""Source-location parity for the MiniPy frontend.

MiniPy threads ``(line, column)`` through lexer -> AST -> codegen ->
IR exactly like MiniC does, so a secure-typing violation in a MiniPy
program names the MiniPy source line with the same ``(source line
L:C)`` suffix."""

import pytest

from repro.core.compiler import compile_and_partition
from repro.errors import FrontendError, SecureTypeError
from repro.frontend.minipy import compile_source, tokenize
from repro.ir.instructions import Call, Store

BROKEN = """\
secret = secure("blue", 1)
out = public(0)

@entry
def main():
    out = secret
"""


def test_secure_type_violation_reports_the_minipy_source_line():
    with pytest.raises(SecureTypeError) as excinfo:
        compile_and_partition(BROKEN, frontend="minipy")
    error = excinfo.value
    assert error.loc is not None
    assert error.loc[0] == 6               # `out = secret`
    assert "source line 6:" in str(error)


def test_locations_survive_partition_specialization():
    source = """\
secret = secure("blue", 1)
out = public(0)

def leak(v):
    out = v
    return 0

@entry
def main():
    return leak(secret)
"""
    with pytest.raises(SecureTypeError) as excinfo:
        compile_and_partition(source, frontend="minipy")
    assert excinfo.value.loc is not None
    assert excinfo.value.loc[0] == 5       # `out = v`


def test_instructions_carry_their_source_lines():
    module = compile_source("""\
g = 0

@entry
def main():
    g = 7
    printf("hi\\n")
    return g
""")
    main = module.functions["main"]
    instrs = [i for block in main.blocks for i in block.instructions]
    stores = [i for i in instrs if isinstance(i, Store)]
    calls = [i for i in instrs if isinstance(i, Call)]
    assert any(i.loc and i.loc[0] == 5 for i in stores)
    assert any(i.loc and i.loc[0] == 6 for i in calls)
    for instr in instrs:
        if instr.loc is not None:
            assert 1 <= instr.loc[0] <= 8


def test_parse_errors_carry_line_and_column():
    with pytest.raises(FrontendError) as excinfo:
        compile_source("@entry\ndef main():\n    return 1.5\n")
    assert "no floats" in str(excinfo.value)
    assert excinfo.value.line == 3

    with pytest.raises(FrontendError) as excinfo:
        compile_source("@entry\ndef main():\n\treturn 1\n")
    assert "tab" in str(excinfo.value)
    assert excinfo.value.line == 3


def test_bad_annotation_names_the_decorator_line():
    with pytest.raises(FrontendError) as excinfo:
        compile_source("@entyr\ndef main():\n    return 0\n")
    assert "did you mean 'entry'" in str(excinfo.value)
    assert excinfo.value.line == 1


@pytest.mark.parametrize("source,column", [
    ("x = ²\n", 5), ("x = ٣\n", 5), ("x = 12²\n", 7)])
def test_non_ascii_digit_is_a_located_frontend_error(source, column):
    with pytest.raises(FrontendError) as excinfo:
        list(tokenize(source))
    assert (excinfo.value.line, excinfo.value.column) == (1, column)
    assert "unexpected character" in str(excinfo.value)
