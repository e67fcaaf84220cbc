"""The MiniC lexer's token stream is pinned: every token's (kind,
text, value, line, column) hashes to a digest taken before the lexer's
regular-expression fast paths went in.  A fix that changes any token
must change these digests on purpose."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.apps.minicache.minic_source import FULL_ANNOTATED
from repro.frontend.lexer import tokenize
from repro.serve.secure_source import SECURE_KV_SOURCE

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples")
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Nested and adjacent trivia, comments spanning lines, maximal munch,
#: number forms and escapes; it ends in trivia, not a literal.
EDGE_CASES = (
    "#define X 1\n"
    "  /* a */ /* b // not a line comment\n  still b */ // c /* d\n"
    "\t\r\n#pragma once /* not a comment either\n"
    "x<<=2; y>>=a<<b>>c; p->q...r.s; a->b-->c+++d;\n"
    "i+=1;i-=1;i*=2;i/=2;i%=2;i&=1;i|=1;i^=1;!a&&b||~c!=d==e<=f>=g;\n"
    "n = 0x1F + 0XaB + 017 + 42L + 7u + 9UL + 0;\n"
    "f = 1.5 + 2.0f + 3e4 + 6.25E-2 + 1e+3 + 4F + 5.;\n"
    "s = \"tab\\tnl\\nquote\\\"bs\\\\nul\\0x\" \"/* in string */\";\n"
    "c = 'a' + '\\n' + '\\'' + '\\\\' + '\\0' + '\"';\n"
    "int color(blue) *_x9 = (int*)v[3] ? w : z; /*\n\n*/ end\n"
)

DIGESTS = {
    "fig7":
        "e8a2cdd052f2b1d72df31fc7a670345a3d51264064c7a2140a3103d1398fbdee",
    "vault":
        "202a6b83aa651e574a32e2f1a3390a6dd3c8a3f4c8744a1f9f7537a1406afea5",
    "minicache":
        "b3f29e9a594a4c68132c7349217df9240bbf192e0abc04ea638e39bc6e62b533",
    "served_kv":
        "1ef087f789ac72f9515db5ae28aa5250cded91b9b8ff1c9ef05f055feea7a21b",
    "edge_cases":
        "3cf4288574ffc19732b2bddff4ae2749229723fbebb7bff5d83da1b4ddab6eeb",
}


def _source(name):
    if name in ("fig7", "vault"):
        with open(os.path.join(EXAMPLES, f"{name}.c")) as handle:
            return handle.read()
    return {"minicache": FULL_ANNOTATED, "served_kv": SECURE_KV_SOURCE,
            "edge_cases": EDGE_CASES}[name]


def token_digest(source):
    stream = [(t.kind, t.text, t.value, t.line, t.column)
              for t in tokenize(source)]
    return hashlib.sha256(repr(stream).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_token_stream_is_unchanged(name):
    assert token_digest(_source(name)) == DIGESTS[name]


def test_source_ending_in_a_number_terminates():
    # A numeric literal at the very end of the input once looped
    # forever on its (absent) suffix; run it where a hang times out.
    code = ("from repro.frontend.lexer import tokenize; "
            "print([tuple(t) for t in tokenize('x = 1')])")
    done = subprocess.run([sys.executable, "-c", code], timeout=10,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "[('ident', 'x', 'x', 1, 1), ('op', '=', '=', 1, 3), "
        "('int', '1', 1, 1, 5), ('eof', '', None, 1, 6)]")
