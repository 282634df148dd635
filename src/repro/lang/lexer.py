"""Lexer for the workflow scripting language.

Tokenizes the textual syntax of §4.  Faithful to the paper's listings:

* identifiers are letters/digits/underscores (starting with a letter or _),
* strings accept straight (``"``) **and** the typographic quotes that appear
  throughout the paper's own listings (``“...”``),
* ``;`` separates clauses (the parser treats it permissively),
* ``//`` line comments and ``/* ... */`` block comments are an extension so
  example scripts can be annotated.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from ..core.errors import ParseError


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    STRING = "string"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    SEMI = ";"
    COMMA = ","
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "taskclass",
        "task",
        "compoundtask",
        "tasktemplate",
        "parameters",
        "implementation",
        "is",
        "inputs",
        "outputs",
        "input",
        "output",
        "inputobject",
        "outputobject",
        "notification",
        "from",
        "of",
        "if",
        "outcome",
        "abort",
        "repeat",
        "mark",
    }
)

_QUOTE_OPEN = {'"', "“"}   # " and “

# One item per match, after any blanks; the group that matched says which.
# ``\w`` is exactly ``str.isalnum()`` or ``_`` (the start of a word is checked
# in ``tokenize``); either closing quote ends either opening one, and no
# string holds a newline.  Every text matches some alternative, so a match
# never fails and never backtracks.
_SCAN = re.compile(
    r"""[ \t\r\n]*(?:(\w+)|([{}();,])|(["“][^"”\n]*["”])|(//[^\n]*|/\*.*?\*/)|(\Z)|(.))""",
    re.DOTALL,
)
_WORD, _PUNCT, _STRING, _COMMENT, _END, _OTHER = range(1, 7)


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


_SINGLE = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ";": TokenType.SEMI,
    ",": TokenType.COMMA,
}


def tokenize(text: str) -> List[Token]:
    """Tokenize a whole script; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    # what ``Token(...)`` does, less the generated ``__new__``'s Python frame
    new, emit, scan = tuple.__new__, tokens.append, _SCAN.match
    keyword, ident = TokenType.KEYWORD, TokenType.IDENT
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    pos = counted = 0        # newlines before ``counted`` are in ``line`` already
    while True:
        found = scan(text, pos)
        group = found.lastindex
        start, pos = found.span(group)
        if group == _COMMENT:
            continue
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = pos  # no token holds a newline
        column = start - line_start + 1
        value = found[group]
        if group == _WORD:
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, column)
            emit(new(Token, (keyword if value in KEYWORDS else ident, value, line, column)))
        elif group == _PUNCT:
            emit(new(Token, (_SINGLE[value], value, line, column)))
        elif group == _STRING:
            emit(new(Token, (TokenType.STRING, value[1:-1].strip(), line, column)))
        elif group == _END:
            emit(new(Token, (TokenType.EOF, "", line, column)))
            return tokens
        elif text.startswith("/*", start):
            raise ParseError("unterminated block comment", line, column)
        elif value in _QUOTE_OPEN:
            raise ParseError("unterminated string", line, column)
        else:
            raise ParseError(f"unexpected character {value!r}", line, column)
