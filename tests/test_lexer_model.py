"""The regex lexer against the character loop it replaced.

``reference_tokenize`` (with its ``ReferenceToken``) is the previous
``repro.lang.lexer.tokenize``, kept verbatim as the model: it read one
character at a time and counted lines and columns as it went.  The lexer now
takes one regex match per token and derives positions from offsets, so the
two must produce the same tokens (type, value, line, column) for every text
either accepts and the same ``ParseError`` (message, line, column) for every
text either refuses — and one parser fed by each must build equal scripts.
The parser now reads lexemes, not tokens, so that one is the token parser it
replaced, kept verbatim in ``tests/test_parser_model.py``.
"""

import re
import sys
from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError, SchemaError
from repro.lang import tokenize
from repro.lang.lexer import KEYWORDS, TokenType
from tests.test_parser_model import SCRIPTS, ReferenceParser, example_scripts

# -- the parent's lexer, verbatim ------------------------------------------------------

_QUOTE_OPEN = {'"', "“"}   # " and “
_QUOTE_CLOSE = {'"', "”"}  # " and ”


@dataclass(frozen=True)
class ReferenceToken:
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


Token = ReferenceToken  # the name the verbatim body below uses

_SINGLE = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ";": TokenType.SEMI,
    ",": TokenType.COMMA,
}


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize a whole script; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    line, column = 1, 1
    i, n = 0, len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line, start_col = line, column
            advance(2)
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                advance()
            if i + 1 >= n:
                raise ParseError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, column))
            advance()
            continue
        if ch in _QUOTE_OPEN:
            start_line, start_col = line, column
            advance()
            start = i
            while i < n and text[i] not in _QUOTE_CLOSE:
                if text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                advance()
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            value = text[start:i]
            advance()  # closing quote
            tokens.append(Token(TokenType.STRING, value.strip(), start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, column
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            word = text[start:i]
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, word, start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens


# -- comparing the two -------------------------------------------------------------------


def lexed(lexer, text):
    """What a lexer makes of ``text``, as plain comparable data."""
    try:
        return [(t.type, t.value, t.line, t.column) for t in lexer(text)]
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)


def parsed(lexer, text):
    try:
        return ReferenceParser(lexer(text)).parse_script()
    except (ParseError, SchemaError) as error:
        return (type(error).__name__, str(error))


def assert_same_tokens(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text), repr(text)


settings.register_profile(
    "repro-lexer-model", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-lexer-model")

# everything the lexer tells apart, and the neighbours it must not confuse:
# the four blanks and blanks that are not (VT, FF, NBSP, LS — trimmed from a string
# all the same), punctuation, the three quote characters, comment material,
# letters and digits of every ``str`` class (``٣`` is decimal; ``²`` a digit
# and ``ⅷ`` numeric but neither decimal nor alphabetic; ``ǅ`` titlecase; ``ʰ`` a
# modifier letter; U+0301 a combining mark, no letter at all), and whole lexemes so that runs form
PIECES = st.sampled_from(
    [" ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\xa0", "\u2028"]
    + list("{}();,")
    + ['"', "“", "”", "'", "/", "*", "_", "\\", "@", "-", "."]
    + ["a", "Z", "é", "ß", "λ", "ж", "中", "ǅ", "ʰ", "0", "7", "٣", "²", "ⅷ", "½", "\u0301"]
    + ["//", "/*", "*/", "/**/", "// c\n", "/* c\nc */", '"s"', "“s”", '" s "']
    + ["task", "of", "taskclass", "is", "implementation", "x1", "_y"]
)


class TestSameTokens:
    @given(st.lists(PIECES, max_size=40).map("".join))
    def test_on_lexeme_soup(self, text):
        assert_same_tokens(text)

    @given(st.text(max_size=60))
    def test_on_arbitrary_unicode(self, text):
        assert_same_tokens(text)

    @given(st.lists(st.one_of(PIECES, st.characters()), max_size=30).map("".join))
    def test_on_soup_salted_with_any_character(self, text):
        assert_same_tokens(text)

    def test_word_class_is_isalnum_or_underscore_for_every_code_point(self):
        # the lexer's ``\w+`` stands in for the old ``isalnum() or "_"`` loop
        # ([^\W\d] would not do for the start: it admits ² and ⅷ)
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\w", every)) == {c for c in every if c.isalnum() or c == "_"}

    def test_every_character_alone_between_and_inside(self):
        # below U+3000 one by one: alone, as a word's second character,
        # and inside a string
        for code in range(0x3000):
            ch = chr(code)
            for text in (ch, f"a{ch}b", f'"{ch}"'):
                assert_same_tokens(text)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ('"never closed', "unterminated string", 1, 1),
            ('class A;\n  "open\nclosed"', "unterminated string", 2, 3),
            ("“open\n”", "unterminated string", 1, 1),
            ('"', "unterminated string", 1, 1),
            ("/*/", "unterminated block comment", 1, 1),
            ("a\n /* forever *", "unterminated block comment", 2, 2),
            ("/* done */ /*", "unterminated block comment", 1, 12),
            ("x /", "unexpected character '/'", 1, 3),
            ("x / y", "unexpected character '/'", 1, 3),
            ("x */", "unexpected character '*'", 1, 3),
            ("”late“", "unexpected character '”'", 1, 1),
            ("a \\ b", "unexpected character '\\\\'", 1, 3),
            ("'single'", 'unexpected character "\'"', 1, 1),
            ("class A @ B", "unexpected character '@'", 1, 9),
            ("1abc", "unexpected character '1'", 1, 1),
            ("a ²", "unexpected character '²'", 1, 3),
            ("ⅷ", "unexpected character 'ⅷ'", 1, 1),
            ("a\x0bb", "unexpected character '\\x0b'", 1, 2),
            ("/* a\n b */\n\t@", "unexpected character '@'", 3, 2),
            ("// c\r\n\r\n  @", "unexpected character '@'", 3, 3),
        ],
    )
    def test_malformed_input_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as caught:
            tokenize(text)
        error = caught.value
        assert (str(error), error.line, error.column) == (
            f"line {line}, column {column}: {message}", line, column
        )
        assert_same_tokens(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            # either closing quote ends either opening quote; “ is no closer
            ("“a\"", [(TokenType.STRING, "a", 1, 1)]),
            ("\"a”", [(TokenType.STRING, "a", 1, 1)]),
            ("\"a “ b\"", [(TokenType.STRING, "a “ b", 1, 1)]),
            # trimmed, CR and all; an inner CR stays
            ("\" \ta\rb\r \"", [(TokenType.STRING, "a\rb", 1, 1)]),
            ("\"\" \"\xa0\"", [(TokenType.STRING, "", 1, 1), (TokenType.STRING, "", 1, 4)]),
            # digits of any kind continue a word, only letters and _ start one
            ("a²ⅷ٣_", [(TokenType.IDENT, "a²ⅷ٣_", 1, 1)]),
            ("_1 tasks", [(TokenType.IDENT, "_1", 1, 1), (TokenType.IDENT, "tasks", 1, 4)]),
            # a comment ends where it says, and only a newline moves the line
            ("/**/a/***/b", [(TokenType.IDENT, "a", 1, 5), (TokenType.IDENT, "b", 1, 11)]),
            ("// c", []),
            ("a\r\n b\rc", [(TokenType.IDENT, "a", 1, 1), (TokenType.IDENT, "b", 2, 2),
                            (TokenType.IDENT, "c", 2, 4)]),
            ("/* 1\n2\n*/ x", [(TokenType.IDENT, "x", 3, 4)]),
        ],
    )
    def test_accepted_corner_cases(self, text, tokens):
        *found, end = lexed(tokenize, text)
        assert found == tokens and end[0] is TokenType.EOF
        assert_same_tokens(text)

    def test_token_keeps_fields_equality_and_is_keyword(self):
        token = tokenize("task")[0]
        assert (token.type, token.value, token.line, token.column) == (
            TokenType.KEYWORD, "task", 1, 1
        )
        assert token == tokenize("task")[0] and token != tokenize(" task")[0]
        assert token.is_keyword("task") and not token.is_keyword("of")
        assert not tokenize("tasks")[0].is_keyword("tasks")

    def test_scan_time_stays_linear_on_hostile_input(self):
        # every match succeeds at once, so no character is read more than a
        # bounded number of times: the repository service reads scripts from
        # outside
        for text in ("/**/" * 20000 + "@", "/*" * 40000, '"' + "a" * 100000,
                     "/* " * 30000 + "*/ @", "// x\n" * 20000 + "@", " " * 100000 + "@"):
            with pytest.raises(ParseError):
                tokenize(text)


# -- one parser, two lexers ------------------------------------------------------------


class TestSameScripts:
    def test_the_examples_were_found(self):
        assert len(list(example_scripts())) >= 3

    @pytest.mark.parametrize("text", SCRIPTS)
    def test_equal_tokens_and_equal_script(self, text):
        assert_same_tokens(text)
        script = parsed(tokenize, text)
        assert script == parsed(reference_tokenize, text)
        assert script.tasks  # a script, not an equal pair of errors

    @pytest.mark.parametrize("text", SCRIPTS[:3])
    def test_equal_parse_error_wherever_the_text_is_cut(self, text):
        # a script cut short anywhere — in a word, a string, a comment — is
        # refused (or not) alike, with the same message and position
        for cut in range(0, len(text), 7):
            assert parsed(tokenize, text[:cut]) == parsed(reference_tokenize, text[:cut]), cut
