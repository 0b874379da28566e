"""MiniC lexer."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import LexError


class TokenKind(enum.Enum):
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    IDENT = "ident"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "int",
    "float",
    "void",
    "struct",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "print",
    "alloc",
}

# Longest-match-first punctuation.
PUNCTUATION = [
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


#: One alternative per token class, tried in this order at each
#: position; ``bad`` takes any character nothing else does, so matches
#: tile the source.  Punctuation keeps the longest-match-first order.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC source, raising :class:`LexError` on bad input."""
    tokens: list[Token] = []
    line = 1
    line_start = 0  # index of the first character of ``line``
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        text = m.group()
        col = m.start() - line_start + 1
        if group == "space" or group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
        elif group == "number":
            is_float = "." in text or "e" in text or "E" in text
            kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
            tokens.append(Token(kind, text, line, col))
        elif group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                # a numeric character that is neither a letter nor a
                # decimal digit (say "½")
                raise LexError(f"unexpected character {text[0]!r}", line, col)
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
        elif group == "punct":
            tokens.append(Token(TokenKind.PUNCT, text, line, col))
        elif group == "open_comment":
            raise LexError("unterminated block comment", line, col)
        else:
            raise LexError(f"unexpected character {text!r}", line, col)

    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
