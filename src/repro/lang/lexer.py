"""Lexer for the workflow scripting language.

Reads the textual syntax of §4.  Faithful to the paper's listings:

* identifiers are letters/digits/underscores (starting with a letter or _),
* strings accept straight (``"``) **and** the typographic quotes that appear
  throughout the paper's own listings (``“...”``),
* ``;`` separates clauses (the parser treats it permissively),
* ``//`` line comments and ``/* ... */`` block comments are an extension so
  example scripts can be annotated.

One pattern, ``_LEXEME``, is the whole lexical grammar, read two ways:

* **The lexeme pass** (:data:`lexemes`, one ``findall``) is what the parser
  reads: the text of every lexeme in order, blanks and comments consumed
  inside each match, with no kind and no position.  A lexeme's kind is in its
  text: punctuation and (reserved) keywords are compared as spelt, a string
  starts with a quote and an identifier with a letter or ``_``
  (:func:`is_identifier`, :func:`is_string`).  Anything else — a stray
  character, a word that starts with a digit, a string or block comment left
  open — is a lexeme too, one the parser accepts nowhere.  The end of the
  text is the empty lexeme.
* **The positioned view** (:func:`tokenize`) takes the same matches one at
  a time, counts lines and columns and raises at the first lexical error.
  The parser calls it only on its error path: a lexical error anywhere in
  the text is reported before a syntax error, as when the text was tokenized
  first, and a syntax error takes its position from it.
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
    "class extends taskclass task compoundtask tasktemplate parameters implementation"
    " is inputs outputs input output inputobject outputobject notification from of"
    " if outcome abort repeat mark".split()
)

_QUOTE_OPEN = frozenset('"“')   # " and “
_QUOTE_CLOSE = frozenset('"”')  # " and ”

# Blanks and comments, then one lexeme.  ``\w`` is exactly ``str.isalnum()``
# or ``_`` (the start of a word is checked by ``is_identifier``); either
# closing quote ends either opening one, and no string holds a newline.  A
# string or block comment left open is one lexeme to the end of its line or
# of the text, and every other position matches ``\Z`` or ``.``, so a match
# never fails and never backtracks, and each character is read a bounded
# number of times.  A text that ends in blanks or a comment yields a second
# empty lexeme after the first, which nothing reads.
_LEXEME = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*(\w+|[{}();,]|["“][^"”\n]*["”]?|/\*.*|\Z|.)""",
    re.DOTALL,
)

#: The lexemes of a text, in order, ending in the empty lexeme.
lexemes = _LEXEME.findall


def is_identifier(lexeme: str) -> bool:
    return (lexeme[:1].isalpha() or lexeme[:1] == "_") and lexeme not in KEYWORDS


def is_string(lexeme: str) -> bool:
    """A quoted string, closed (an open one is one character shorter)."""
    return lexeme[:1] in _QUOTE_OPEN and len(lexeme) > 1 and lexeme[-1] in _QUOTE_CLOSE


def string_value(lexeme: str) -> str:
    """What a string lexeme says: inside the quotes, trimmed."""
    return lexeme[1:-1].strip()


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


_SINGLE = {mark: TokenType(mark) for mark in "{}();,"}


def tokenize(text: str) -> List[Token]:
    """The lexemes of ``text`` with their kinds and positions, ending in one
    EOF token; raises :class:`ParseError` at the first lexical error."""
    tokens: List[Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    pos = counted = 0        # newlines before ``counted`` are in ``line`` already
    while True:
        found = _LEXEME.match(text, pos)
        start, pos = found.span(1)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = pos  # no token holds a newline
        column = start - line_start + 1
        lexeme = found[1]
        if lexeme in _SINGLE:
            tokens.append(Token(_SINGLE[lexeme], lexeme, line, column))
        elif lexeme in KEYWORDS:
            tokens.append(Token(TokenType.KEYWORD, lexeme, line, column))
        elif is_identifier(lexeme):
            tokens.append(Token(TokenType.IDENT, lexeme, line, column))
        elif is_string(lexeme):
            tokens.append(Token(TokenType.STRING, string_value(lexeme), line, column))
        elif not lexeme:
            tokens.append(Token(TokenType.EOF, "", line, column))
            return tokens
        elif lexeme.startswith("/*"):
            raise ParseError("unterminated block comment", line, column)
        elif lexeme[0] in _QUOTE_OPEN:
            raise ParseError("unterminated string", line, column)
        else:
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, column)
