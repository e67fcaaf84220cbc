"""MiniPy lexer.

MiniPy is the second Privagic frontend: a Python-like secure scripting
language (functions, 64-bit ints, byte strings, ``while``/``if``,
calls, and ``secure(...)``/``public(...)`` declarations) that lowers
through the same secure-value contract (:mod:`repro.secval`) as MiniC.

The token stream is Python-shaped: logical lines end in ``newline``
tokens and indentation changes surface as ``indent``/``dedent`` pairs,
which is all the parser needs to recover block structure.  Inside
parentheses, newlines and indentation are suppressed (implicit line
joining).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from repro.errors import FrontendError
from repro.frontend.lexer import is_digit

KEYWORDS = frozenset({
    "def", "return", "if", "elif", "else", "while",
    "pass", "break", "continue",
    "and", "or", "not", "True", "False",
})

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "//=", "<<=", ">>=",
    "//", "<<", ">>", "<=", ">=", "==", "!=",
    "+=", "-=", "*=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "%", "=", "<", ">", "~", "&", "|", "^",
    "(", ")", ",", ":", "@",
]


class Token(NamedTuple):
    kind: str   # "kw", "ident", "int", "string", "op",
                # "newline", "indent", "dedent", "eof"
    text: str
    value: object
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        return self.kind == "kw" and self.text in kws


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}


class Lexer:
    """Converts MiniPy source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self._indents: List[int] = [0]
        self._paren_depth = 0
        self._at_line_start = True
        self._emitted_any = False

    def tokens(self) -> Iterator[Token]:
        while True:
            if self._at_line_start and self._paren_depth == 0 and \
                    self.pos < len(self.source):
                token = self._handle_indentation()
                if token is not None:
                    yield token
                    continue
                if self._at_line_start and self.pos < len(self.source):
                    continue  # blank or comment-only line consumed
            self._skip_trivia()
            if self.pos >= len(self.source):
                # Close the final logical line and any open blocks.
                if self._emitted_any and not self._at_line_start:
                    self._at_line_start = True
                    yield Token("newline", "", None, self.line, self.column)
                while len(self._indents) > 1:
                    self._indents.pop()
                    yield Token("dedent", "", None, self.line, self.column)
                yield Token("eof", "", None, self.line, self.column)
                return
            if self._peek() == "\n":
                line, column = self.line, self.column
                self._advance()
                if self._paren_depth == 0 and not self._at_line_start:
                    self._at_line_start = True
                    yield Token("newline", "", None, line, column)
                continue
            token = self._next_token()
            self._at_line_start = False
            self._emitted_any = True
            yield token

    # -- internals -------------------------------------------------------------

    def _error(self, message: str) -> FrontendError:
        return FrontendError(message, self.line, self.column)

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos:self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return text

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _handle_indentation(self):
        """Measure the indentation of the next non-blank logical line
        and emit one indent/dedent step if the level changed."""
        # Measure leading spaces; blank and comment-only lines do not
        # affect the block structure.
        start = self.pos
        width = 0
        while self._peek() in " \t":
            if self._peek() == "\t":
                raise self._error("tabs are not allowed in indentation")
            self._advance()
            width += 1
        if self._peek() in ("\n", "#", ""):
            if self._peek() == "#":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            if self._peek() == "\n":
                self._advance()
                return None
            if self.pos >= len(self.source):
                self._at_line_start = True
                return None
            return None
        if width > self._indents[-1]:
            self._indents.append(width)
            self._at_line_start = False
            # Re-lex from the first real character of the line.
            return Token("indent", "", None, self.line, self.column)
        if width < self._indents[-1]:
            if width not in self._indents:
                raise self._error(
                    f"unindent to column {width + 1} matches no outer "
                    f"indentation level")
            self._indents.pop()
            # Stay at line start: further dedents may follow before
            # the line's first token is produced.
            self.pos = start
            self.column = 1
            return Token("dedent", "", None, self.line, self.column)
        self._at_line_start = False
        return None

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)  # explicit line joining
            elif ch == "\n" and self._paren_depth > 0:
                self._advance()
            else:
                return

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()
        if (ch == "b" and self._peek(1) in "\"'"):
            self._advance()
            return self._lex_string(line, column)
        if ch.isalpha() or ch == "_":
            text = self._lex_word()
            kind = "kw" if text in KEYWORDS else "ident"
            value: object = text
            if text == "True":
                value = 1
            elif text == "False":
                value = 0
            return Token(kind, text, value, line, column)
        if is_digit(ch):
            return self._lex_number(line, column)
        if ch in "\"'":
            return self._lex_string(line, column)
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                if op == "(":
                    self._paren_depth += 1
                elif op == ")":
                    self._paren_depth = max(0, self._paren_depth - 1)
                return Token("op", op, op, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self) -> str:
        start = self.pos
        while self.pos < len(self.source) and (
                self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        return self.source[start:self.pos]

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start:self.pos]
            return Token("int", text, int(text, 16), line, column)
        while is_digit(self._peek()):
            self._advance()
        if self._peek() == ".":
            raise self._error("MiniPy has no floats; values are 64-bit "
                              "integers")
        text = self.source[start:self.pos]
        return Token("int", text, int(text), line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        quote = self._advance()
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated string literal")
            if ch == quote:
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._advance()
                chars.append(_ESCAPES.get(esc, esc))
            else:
                chars.append(self._advance())
        text = "".join(chars)
        return Token("string", text, text, line, column)


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    return list(Lexer(source, filename).tokens())
