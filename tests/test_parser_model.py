"""The lexeme parser against the token parser it replaced.

``reference_tokenize`` and ``ReferenceParser`` (with ``reference_parse``) are
the previous ``repro.lang.lexer.tokenize`` and ``repro.lang.parser.Parser``,
kept verbatim as the model: the lexer built a positioned ``Token`` per lexeme
before the parser began, and the parser compared token types.  The front end
now reads plain lexeme strings and computes a position only to report an
error, so the two must build an equal ``Script`` (and equal canonical text)
from every text either accepts, and raise an equal error (type, message, line,
column) for every text either refuses — a lexical error anywhere in the text
still before a syntax or schema error ahead of it.
"""

import ast
import glob
import os
import re
from typing import Callable, List, NamedTuple, Optional, Tuple, TypeVar, Union

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError, SchemaError
from repro.core.schema import (
    CompoundTaskDecl,
    GuardKind,
    Implementation,
    InputObjectBinding,
    InputSetBinding,
    InputSetSpec,
    NotificationBinding,
    ObjectDecl,
    OutputBinding,
    OutputKind,
    OutputObjectBinding,
    OutputSpec,
    Script,
    Source,
    TaskClass,
    TaskDecl,
    TaskTemplate,
)
from repro.lang import format_script, parse
from repro.lang.lexer import KEYWORDS, TokenType
from repro.services.admin import MONITOR_SCRIPT, RECONFIGURE_SCRIPT
from repro.workloads import (
    chain,
    diamond,
    fan,
    paper_order,
    paper_service_impact,
    paper_trip,
    random_dag,
)
from repro.workloads.traffic import cohort_script

# -- the parent's lexer, verbatim ----------------------------------------------------------

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


class ReferenceToken(NamedTuple):
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


# -- the parent's parser, verbatim ----------------------------------------------------------

T = TypeVar("T")


class ReferenceParser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.script = Script()

    # -- token helpers --------------------------------------------------------------
    #
    # The EOF token ends the list and is never stepped over, so ``tokens[pos]``
    # is always in range.

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self.tokens[self.pos]
        return ParseError(message, token.line, token.column)

    def unexpected(self, wanted: str, token: Token) -> ParseError:
        found = "end of input" if token.type is TokenType.EOF else repr(token.value)
        return self.error(f"expected {wanted}, found {found}", token)

    def expect(self, type_: TokenType) -> Token:
        """Step over a token of ``type_`` (never EOF)."""
        token = self.tokens[self.pos]
        if token.type is not type_:
            raise self.unexpected(repr(type_.value), token)
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.KEYWORD or token.value != word:
            raise self.unexpected(repr(word), token)
        self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is TokenType.KEYWORD and token.value == word:
            self.pos += 1
            return True
        return False

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if token.type is not TokenType.IDENT:
            raise self.unexpected(what, token)
        self.pos += 1
        return token.value

    def skip_semis(self) -> None:
        while self.tokens[self.pos].type in (TokenType.SEMI, TokenType.COMMA):
            self.pos += 1

    def braced(self, parse_one: Callable[[], T]) -> Tuple[T, ...]:
        """``"{" { one } "}"``, separators tolerated around every ``one``."""
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        items: List[T] = []
        while not self._at_rbrace():
            items.append(parse_one())
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return tuple(items)

    # -- entry point ------------------------------------------------------------------

    def parse_script(self) -> Script:
        self.skip_semis()
        while self.peek().type is not TokenType.EOF:
            self.parse_item()
            self.skip_semis()
        return self.script

    def parse_item(self) -> None:
        token = self.peek()
        if token.is_keyword("class"):
            self.parse_class()
        elif token.is_keyword("taskclass"):
            self.script.add_taskclass(self.parse_taskclass())
        elif token.is_keyword("task"):
            self.script.add_task(self.parse_task())
        elif token.is_keyword("compoundtask"):
            self.script.add_task(self.parse_compoundtask())
        elif token.is_keyword("tasktemplate"):
            self.script.add_template(self.parse_template())
        elif token.type is TokenType.IDENT:
            self.parse_instantiation(into_compound=None)
        else:
            raise self.error(f"unexpected {token.value!r} at top level")

    # -- classes ------------------------------------------------------------------------

    def parse_class(self) -> None:
        self.expect_keyword("class")
        name = self.expect_ident("class name")
        extends = None
        if self.accept_keyword("extends"):
            extends = self.expect_ident("superclass name")
        self.script.add_class(name, extends)

    # -- task classes ----------------------------------------------------------------------

    def parse_taskclass(self) -> TaskClass:
        self.expect_keyword("taskclass")
        name = self.expect_ident("taskclass name")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        input_sets: List[InputSetSpec] = []
        outputs: List[OutputSpec] = []
        while not self._at_rbrace():
            if self.accept_keyword("inputs"):
                input_sets.extend(self.braced(self.parse_inputset_spec))
            elif self.accept_keyword("outputs"):
                outputs.extend(self.braced(self.parse_output_spec))
            else:
                raise self.error(
                    f"expected 'inputs' or 'outputs' in taskclass, found "
                    f"{self.peek().value!r}"
                )
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return TaskClass(name, tuple(input_sets), tuple(outputs))

    def parse_inputset_spec(self) -> InputSetSpec:
        self.expect_keyword("input")
        name = self.expect_ident("input set name")
        return InputSetSpec(name, self.braced(self.parse_object_decl))

    def parse_output_spec(self) -> OutputSpec:
        kind = self.parse_output_kind()
        name = self.expect_ident("output name")
        return OutputSpec(name, kind, self.braced(self.parse_object_decl))

    def parse_output_kind(self) -> OutputKind:
        if self.accept_keyword("abort"):
            self.expect_keyword("outcome")
            return OutputKind.ABORT
        if self.accept_keyword("repeat"):
            self.expect_keyword("outcome")
            return OutputKind.REPEAT
        if self.accept_keyword("mark"):
            return OutputKind.MARK
        self.expect_keyword("outcome")
        return OutputKind.OUTCOME

    def parse_object_decl(self) -> ObjectDecl:
        obj_name = self.expect_ident("object name")
        self.expect_keyword("of")
        self.expect_keyword("class")
        return ObjectDecl(obj_name, self.expect_ident("class name"))

    # -- task instances --------------------------------------------------------------------

    def parse_task(self) -> TaskDecl:
        self.expect_keyword("task")
        name = self.expect_ident("task name")
        self.expect_keyword("of")
        self.expect_keyword("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        while not self._at_rbrace():
            if self.peek().is_keyword("implementation"):
                implementation = self.parse_implementation()
            elif self.peek().is_keyword("inputs"):
                input_sets = self.parse_inputs()
            else:
                raise self.error(
                    f"expected 'implementation' or 'inputs', found {self.peek().value!r}"
                )
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return TaskDecl(name, taskclass, implementation, input_sets)

    def parse_implementation(self) -> Implementation:
        self.expect_keyword("implementation")
        return Implementation(self.braced(self.parse_property))

    def parse_property(self) -> Tuple[str, str]:
        key = self.expect(TokenType.STRING).value
        self.expect_keyword("is")
        return key, self.expect(TokenType.STRING).value

    def parse_inputs(self) -> Tuple[InputSetBinding, ...]:
        self.expect_keyword("inputs")
        return self.braced(self.parse_input_set_binding)

    def parse_input_set_binding(self) -> InputSetBinding:
        self.expect_keyword("input")
        name = self.expect_ident("input set name")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        objects: List[InputObjectBinding] = []
        notifications: List[NotificationBinding] = []
        while not self._at_rbrace():
            token = self.peek()
            if token.is_keyword("inputobject"):
                self.next()
                obj_name = self.expect_ident("input object name")
                self.expect_keyword("from")
                objects.append(
                    InputObjectBinding(obj_name, self.braced(self.parse_object_source))
                )
            elif token.is_keyword("notification"):
                self.next()
                self.expect_keyword("from")
                notifications.append(
                    NotificationBinding(self.braced(self.parse_notification_source))
                )
            elif token.type is TokenType.IDENT:
                # template shorthand:  i1 of task param1 if output success
                source = self.parse_object_source()
                objects.append(InputObjectBinding(source.object_name, (source,)))
            else:
                raise self.error(
                    f"expected 'inputobject', 'notification' or a shorthand "
                    f"source, found {token.value!r}"
                )
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return InputSetBinding(name, tuple(objects), tuple(notifications))

    def parse_object_source(self) -> Source:
        object_name = self.expect_ident("source object name")
        self.expect_keyword("of")
        self.expect_keyword("task")
        task_name = self.expect_ident("task name")
        guard_kind, guard_name = self.parse_guard()
        return Source(task_name, object_name, guard_kind, guard_name)

    def parse_notification_source(self) -> Source:
        self.expect_keyword("task")
        task_name = self.expect_ident("task name")
        guard_kind, guard_name = self.parse_guard()
        return Source(task_name, None, guard_kind, guard_name)

    def parse_guard(self) -> Tuple[GuardKind, Optional[str]]:
        if not self.accept_keyword("if"):
            return GuardKind.ANY, None
        if self.accept_keyword("output"):
            return GuardKind.OUTPUT, self.expect_ident("output name")
        if self.accept_keyword("input"):
            return GuardKind.INPUT, self.expect_ident("input set name")
        raise self.error(f"expected 'output' or 'input' after 'if'")

    # -- compound tasks --------------------------------------------------------------------

    def parse_compoundtask(self) -> CompoundTaskDecl:
        self.expect_keyword("compoundtask")
        name = self.expect_ident("compound task name")
        self.expect_keyword("of")
        self.expect_keyword("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        tasks: List[Union[TaskDecl, CompoundTaskDecl]] = []
        outputs: Tuple[OutputBinding, ...] = ()
        while not self._at_rbrace():
            token = self.peek()
            if token.is_keyword("implementation"):
                implementation = self.parse_implementation()
            elif token.is_keyword("inputs"):
                input_sets = self.parse_inputs()
            elif token.is_keyword("task"):
                tasks.append(self.parse_task())
            elif token.is_keyword("compoundtask"):
                tasks.append(self.parse_compoundtask())
            elif token.is_keyword("outputs"):
                outputs = self.parse_outputs_mapping()
            elif token.type is TokenType.IDENT:
                tasks.append(self.parse_instantiation(into_compound=tasks))
            else:
                raise self.error(
                    f"unexpected {token.value!r} inside compound task"
                )
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return CompoundTaskDecl(
            name=name,
            taskclass_name=taskclass,
            implementation=implementation,
            input_sets=input_sets,
            tasks=tuple(tasks),
            outputs=outputs,
        )

    def parse_outputs_mapping(self) -> Tuple[OutputBinding, ...]:
        self.expect_keyword("outputs")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        bindings: List[OutputBinding] = []
        while not self._at_rbrace():
            _kind = self.parse_output_kind()  # kind is declared by the class
            name = self.expect_ident("output name")
            self.expect(TokenType.LBRACE)
            self.skip_semis()
            objects: List[OutputObjectBinding] = []
            notifications: List[NotificationBinding] = []
            while not self._at_rbrace():
                token = self.peek()
                if token.is_keyword("outputobject"):
                    self.next()
                    obj_name = self.expect_ident("output object name")
                    self.expect_keyword("from")
                    objects.append(
                        OutputObjectBinding(obj_name, self.braced(self.parse_object_source))
                    )
                elif token.is_keyword("notification"):
                    self.next()
                    self.expect_keyword("from")
                    notifications.append(
                        NotificationBinding(self.braced(self.parse_notification_source))
                    )
                else:
                    raise self.error(
                        f"expected 'outputobject' or 'notification', found "
                        f"{token.value!r}"
                    )
                self.skip_semis()
            self.expect(TokenType.RBRACE)
            bindings.append(OutputBinding(name, tuple(objects), tuple(notifications)))
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        return tuple(bindings)

    # -- templates -----------------------------------------------------------------------

    def parse_template(self) -> TaskTemplate:
        self.expect_keyword("tasktemplate")
        if self.peek().is_keyword("compoundtask"):
            compound = True
            self.next()
        else:
            self.expect_keyword("task")
            compound = False
        name = self.expect_ident("template name")
        self.expect_keyword("of")
        self.expect_keyword("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect(TokenType.LBRACE)
        self.skip_semis()
        self.expect_keyword("parameters")
        parameters = self.braced(lambda: self.expect_ident("parameter name"))
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        tasks: List[Union[TaskDecl, CompoundTaskDecl]] = []
        outputs: Tuple[OutputBinding, ...] = ()
        while not self._at_rbrace():
            token = self.peek()
            if token.is_keyword("implementation"):
                implementation = self.parse_implementation()
            elif token.is_keyword("inputs"):
                input_sets = self.parse_inputs()
            elif compound and token.is_keyword("task"):
                tasks.append(self.parse_task())
            elif compound and token.is_keyword("compoundtask"):
                tasks.append(self.parse_compoundtask())
            elif compound and token.is_keyword("outputs"):
                outputs = self.parse_outputs_mapping()
            else:
                raise self.error(f"unexpected {token.value!r} in template body")
            self.skip_semis()
        self.expect(TokenType.RBRACE)
        if compound:
            body: Union[TaskDecl, CompoundTaskDecl] = CompoundTaskDecl(
                name=name,
                taskclass_name=taskclass,
                implementation=implementation,
                input_sets=input_sets,
                tasks=tuple(tasks),
                outputs=outputs,
            )
        else:
            body = TaskDecl(name, taskclass, implementation, input_sets)
        return TaskTemplate(name, parameters, body)

    def parse_instantiation(self, into_compound) -> Union[TaskDecl, CompoundTaskDecl]:
        """``<name> of tasktemplate <template>(<args>)``."""
        instance_name = self.expect_ident("instance name")
        self.expect_keyword("of")
        self.expect_keyword("tasktemplate")
        template_name = self.expect_ident("template name")
        self.expect(TokenType.LPAREN)
        arguments: List[str] = []
        while self.peek().type is not TokenType.RPAREN:
            arguments.append(self.expect_ident("template argument"))
            if self.peek().type is TokenType.COMMA:
                self.next()
        self.expect(TokenType.RPAREN)
        if template_name not in self.script.templates:
            raise self.error(f"unknown tasktemplate {template_name!r}")
        template = self.script.templates[template_name]
        decl = template.instantiate(instance_name, tuple(arguments))
        if into_compound is None:
            self.script.add_task(decl)
        return decl

    # -- misc -------------------------------------------------------------------------------

    def _at_rbrace(self) -> bool:
        return self.tokens[self.pos].type in (TokenType.RBRACE, TokenType.EOF)


def reference_parse(text: str) -> Script:
    """Parse a script from source text (no semantic validation)."""
    return ReferenceParser(reference_tokenize(text)).parse_script()


# -- comparing the two ---------------------------------------------------------------------


def outcome(parser: Callable[[str], Script], text: str):
    """A script, or the error a parser raises, as comparable data."""
    try:
        return parser(text)
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)
    except SchemaError as error:
        return ("SchemaError", str(error))


def assert_same_outcome(text: str) -> None:
    assert outcome(parse, text) == outcome(reference_parse, text), repr(text)


settings.register_profile(
    "repro-parser-model", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-parser-model")


def example_scripts():
    """Every module-level script text an ``examples/*.py`` file carries."""
    here = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(here, os.pardir, "examples", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            module = ast.parse(handle.read())
        for node in module.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and "taskclass" in node.value.value
            ):
                yield pytest.param(node.value.value, id=os.path.basename(path))


# the three paper applications first: the cut and salted tests take those
SCRIPTS = [
    pytest.param(paper_order.SCRIPT_TEXT, id="order"),
    pytest.param(paper_trip.SCRIPT_TEXT, id="trip"),
    pytest.param(paper_service_impact.SCRIPT_TEXT, id="service-impact"),
    pytest.param(format_script(chain(32)[0]), id="chain(32)"),
    pytest.param(format_script(fan(64)[0]), id="fan(64)"),
    pytest.param(format_script(diamond()[0]), id="diamond"),
    *(
        pytest.param(format_script(random_dag(24, seed=seed)[0]), id=f"random_dag(24, seed={seed})")
        for seed in range(4)
    ),
    *example_scripts(),
    *(
        pytest.param(format_script(cohort_script(cohort, 3)[0]), id=f"cohort {cohort}")
        for cohort in range(3)
    ),
    pytest.param(MONITOR_SCRIPT, id="admin monitor"),
    pytest.param(RECONFIGURE_SCRIPT, id="admin reconfigure"),
]
PAPER = [param.values[0] for param in SCRIPTS[:3]]

# whole lexemes of the grammar, a few lexical errors and the separators
FRAGMENTS = st.sampled_from(
    sorted(KEYWORDS)
    + list("{}();,")
    + ['"x"', "“ y ”", '""', "foo", "t1", "_p", "A", "main", "//c\n", "/*c*/", " ", "\n"]
    + ["@", '"open', "/*", "1a", "²"]
)


class TestSameScripts:
    def test_the_examples_were_found(self):
        assert len(list(example_scripts())) >= 3

    @pytest.mark.parametrize("text", SCRIPTS)
    def test_equal_script_and_equal_canonical_text(self, text):
        script = parse(text)
        assert script.tasks  # a script, not an equal pair of errors
        assert script == reference_parse(text)
        assert format_script(script) == format_script(reference_parse(text))

    @given(st.lists(FRAGMENTS, max_size=60).map(" ".join))
    def test_on_lexeme_soup(self, text):
        assert_same_outcome(text)

    @given(st.lists(FRAGMENTS, max_size=60).map("".join))
    def test_on_lexeme_soup_without_blanks(self, text):
        assert_same_outcome(text)


class TestSameErrors:
    @pytest.mark.parametrize("text", PAPER, ids=["order", "trip", "service-impact"])
    def test_wherever_the_text_is_cut(self, text):
        # cut short anywhere — in a word, a string, a comment — a script is
        # refused (or not) alike, with the same message and position (every
        # 11th cut, offset from test_lexer_model.py's every 7th)
        for cut in range(3, len(text), 11):
            assert_same_outcome(text[:cut])

    @given(
        st.sampled_from(PAPER),
        st.integers(min_value=0),
        st.characters(),
        st.booleans(),
    )
    def test_salted_with_any_character(self, text, where, salt, replace):
        # one character put in anywhere, or in place of one
        at = where % (len(text) + 1)
        assert_same_outcome(text[:at] + salt + text[at + replace:])

    @given(st.sampled_from(PAPER), st.lists(st.integers(min_value=0), min_size=2, max_size=4),
           st.lists(st.sampled_from(["@", '"', "“", "/*", "}", "{", ";", "of", "x", "1"]),
                    min_size=2, max_size=4))
    def test_salted_in_several_places(self, text, wheres, salts):
        for where, salt in zip(wheres, salts):
            at = where % (len(text) + 1)
            text = text[:at] + salt + text[at:]
        assert_same_outcome(text)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            # a syntax error ahead of a lexical error: the lexical one is reported
            ("task ; @", "unexpected character '@'", 1, 8),
            ("class A;\ntask t of taskclass {\n  }\n'", "unexpected character \"'\"", 4, 1),
            ("task t of taskclass T { } \"open", "unterminated string", 1, 27),
            ("} /* forever", "unterminated block comment", 1, 3),
            # so is a schema error ahead of it (a task class declared twice)
            ("taskclass T { } taskclass T { } 1x", "unexpected character '1'", 1, 33),
            # and where the syntax error is itself the lexical one
            ("class 2b;", "unexpected character '2'", 1, 7),
            # with none, the syntax error, found as the token parser said it
            ("task t of taskclass T { implementation { \" k \" } }",
             "expected 'is', found '}'", 1, 48),
            ("task t of taskclass T { implementation { x } }",
             "expected 'string', found 'x'", 1, 42),
            ("class\n  ", "expected class name, found end of input", 2, 3),
        ],
    )
    def test_which_error_is_reported(self, text, message, line, column):
        with pytest.raises(ParseError) as caught:
            parse(text)
        error = caught.value
        assert (str(error), error.line, error.column) == (
            f"line {line}, column {column}: {message}", line, column
        )
        assert_same_outcome(text)

    def test_a_schema_error_without_a_lexical_one_is_raised_as_before(self):
        text = "taskclass T { } taskclass T { }"
        with pytest.raises(SchemaError):
            parse(text)
        assert_same_outcome(text)

    def test_scan_time_stays_linear_on_hostile_input(self):
        # the lexeme pass reads on past the first lexical error, so an open
        # string or block comment must not be read again from every position
        # after it: each is one lexeme to the end of its line or the text
        for text in ("“" * 100000, '"' * 100000, "/* " * 30000, "/*" * 40000 + "/",
                     '"' + "a" * 100000, "// x\n" * 20000 + "@", " " * 100000 + "@"):
            with pytest.raises(ParseError):
                parse(text)
