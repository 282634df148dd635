"""Recursive-descent parser for the workflow scripting language.

Parses the §4 syntax directly into the validated schema model
(:mod:`repro.core.schema`) — the schema classes *are* the AST, so the
formatter (:mod:`repro.lang.formatter`) round-trips and the repository
service stores exactly what was parsed.

The grammar accepted (EBNF, ``;`` is a permissive separator — stray or
missing semicolons between clauses are tolerated, as the paper's own listings
are inconsistent about them)::

    script        = { item } ;
    item          = class | taskclass | task | compoundtask
                  | tasktemplate | instantiation ;
    class         = "class" IDENT ";" ;
    taskclass     = "taskclass" IDENT "{" [ "inputs" "{" {inputset} "}" ]
                                          [ "outputs" "{" {output} "}" ] "}" ;
    inputset      = "input" IDENT "{" { objdecl } "}" ;
    objdecl       = IDENT "of" "class" IDENT ;
    output        = outkind IDENT "{" { objdecl } "}" ;
    outkind       = "outcome" | "abort" "outcome" | "repeat" "outcome" | "mark" ;
    task          = "task" IDENT "of" "taskclass" IDENT "{" body "}" ;
    body          = [ implementation ] [ inputs ] ;
    implementation= "implementation" "{" prop { ("," | ";") prop } "}" ;
    prop          = STRING "is" STRING ;
    inputs        = "inputs" "{" { iset } "}" ;
    iset          = "input" IDENT "{" { dep } "}" ;
    dep           = "inputobject" IDENT "from" "{" { source } "}"
                  | "notification" "from" "{" { nsource } "}"
                  | source                       (* template shorthand *)
    source        = IDENT "of" "task" IDENT [ "if" ("output"|"input") IDENT ] ;
    nsource       = "task" IDENT "if" ("output"|"input") IDENT ;
    compoundtask  = "compoundtask" IDENT "of" "taskclass" IDENT
                    "{" { inputs | implementation | task | compoundtask
                        | instantiation | outputsmap } "}" ;
    outputsmap    = "outputs" "{" { outmap } "}" ;
    outmap        = outkind IDENT "{" { omdep } "}" ;
    omdep         = "outputobject" IDENT "from" "{" { source } "}"
                  | "notification" "from" "{" { nsource } "}" ;
    tasktemplate  = "tasktemplate" ("task"|"compoundtask") IDENT "of"
                    "taskclass" IDENT "{" "parameters" "{" { IDENT } "}"
                    <task or compound body> "}" ;
    instantiation = IDENT "of" "tasktemplate" IDENT "(" [ IDENT {"," IDENT} ] ")" ;
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar, Union

from ..core.errors import ParseError
from ..core.schema import (
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
from .lexer import Token, TokenType, tokenize

T = TypeVar("T")


class Parser:
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


def parse(text: str) -> Script:
    """Parse a script from source text (no semantic validation)."""
    return Parser(tokenize(text)).parse_script()
