"""MiniC lexer."""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from repro.errors import FrontendError

KEYWORDS = frozenset({
    "void", "char", "int", "long", "float", "double", "unsigned",
    "struct", "union", "sizeof", "typedef",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "extern", "static", "const",
    # Privagic surface syntax (paper Fig 1, §6.2-§6.4):
    "color", "within", "ignore", "entry",
})

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

#: Whitespace, ``//`` and ``#`` lines (preprocessor lines are ignored:
#: the color macro of the paper is a language keyword here) and closed
#: ``/* */`` comments.  An unterminated ``/*`` is left for the error.
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|#[^\n]*|/\*.*?\*/)+", re.S)
#: The rest of an identifier or keyword (``str.isalnum`` or ``_``).
_WORD = re.compile(r"\w+")
#: Alternatives are tried in order, so longest-first keeps maximal munch.
_OPERATOR = re.compile("|".join(re.escape(op) for op in OPERATORS))


def is_digit(ch: str) -> bool:
    """ASCII ``0-9`` only (and False for the empty end-of-input peek):
    ``str.isdigit`` also admits ``²`` or ``٣``, which ``int()``
    rejects or reads as a decimal digit."""
    return "0" <= ch <= "9"


class Token(NamedTuple):
    kind: str          # "kw", "ident", "int", "float", "char", "string", "op", "eof"
    text: str
    value: object
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        return self.kind == "kw" and self.text in kws


class Lexer:
    """Converts MiniC source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                yield Token("eof", "", None, self.line, self.column)
                return
            yield self._next_token()

    # -- internals -------------------------------------------------------------

    def _error(self, message: str) -> FrontendError:
        return FrontendError(message, self.line, self.column)

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos:self.pos + n]
        newlines = text.count("\n")
        if newlines:
            self.line += newlines
            self.column = len(text) - text.rfind("\n")
        else:
            self.column += len(text)
        self.pos += n
        return text

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_trivia(self) -> None:
        match = _TRIVIA.match(self.source, self.pos)
        if match:
            self._advance(match.end() - self.pos)
        if self.source.startswith("/*", self.pos):
            self._advance(len(self.source) - self.pos)
            raise self._error("unterminated block comment")

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self.source[self.pos]
        if ch.isalpha() or ch == "_":
            text = _WORD.match(self.source, self.pos).group()
            self.pos += len(text)
            self.column += len(text)
            kind = "kw" if text in KEYWORDS else "ident"
            return Token(kind, text, text, line, column)
        if is_digit(ch):
            return self._lex_number(line, column)
        if ch == '"':
            return self._lex_string(line, column)
        if ch == "'":
            return self._lex_char(line, column)
        match = _OPERATOR.match(self.source, self.pos)
        if match:
            op = match.group()
            self.pos += len(op)
            self.column += len(op)
            return Token("op", op, op, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start:self.pos]
            return Token("int", text, int(text, 16), line, column)
        while is_digit(self._peek()):
            self._advance()
        if self._peek() == "." and is_digit(self._peek(1)):
            is_float = True
            self._advance()
            while is_digit(self._peek()):
                self._advance()
        if self._peek() in "eE" and (is_digit(self._peek(1)) or (
                self._peek(1) in "+-" and is_digit(self._peek(2)))):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while is_digit(self._peek()):
                self._advance()
        text = self.source[start:self.pos]
        while self._peek() and self._peek() in "uUlLfF":  # ignored suffixes
            suffix = self._advance()
            if suffix in "fF":
                is_float = True
        if is_float:
            return Token("float", text, float(text), line, column)
        return Token("int", text, int(text), line, column)

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
                "\\": "\\", "'": "'", '"': '"'}

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._advance()
                chars.append(self._ESCAPES.get(esc, esc))
            else:
                chars.append(self._advance())
        text = "".join(chars)
        return Token("string", text, text, line, column)

    def _lex_char(self, line: int, column: int) -> Token:
        self._advance()
        ch = self._advance()
        if ch == "\\":
            ch = self._ESCAPES.get(self._advance(), ch)
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return Token("char", ch, ord(ch), line, column)


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    return list(Lexer(source, filename).tokens())
