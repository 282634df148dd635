"""Recursive-descent parser for the workflow scripting language.

Parses the §4 syntax directly into the validated schema model
(:mod:`repro.core.schema`) — the schema classes *are* the AST, so the
formatter (:mod:`repro.lang.formatter`) round-trips and the repository
service stores exactly what was parsed.

The parser reads the text's lexemes (:data:`repro.lang.lexer.lexemes`, one
``findall``): plain strings, compared as spelt, with no token objects and no
positions.  Positions exist only on the error path: :meth:`Parser.error`
asks :func:`~repro.lang.lexer.tokenize` for the token under the cursor,
which raises instead when the text holds a lexical error anywhere, so a
lexical error is reported before any syntax or schema error, as when the
whole text was tokenized first.

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

from ..core.errors import ParseError, SchemaError
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
from .lexer import is_identifier, is_string, lexemes, string_value, tokenize

T = TypeVar("T")

_BLOCK_END = ("}", "")  # what ends a braced block's items: its "}", or the text


class Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.lexemes = lexemes(text)
        self.pos = 0
        self.script = Script()

    # -- lexeme helpers -------------------------------------------------------------
    #
    # The first empty lexeme ends the text and is never stepped over, so
    # ``lexemes[pos]`` is always in range.  Keywords are reserved, so a
    # lexeme equal to one is that keyword.

    def peek(self) -> str:
        return self.lexemes[self.pos]

    def error(self, message: str) -> ParseError:
        """``message`` at the lexeme under the cursor — unless the text holds
        a lexical error, which :func:`tokenize` raises instead."""
        token = tokenize(self.text)[self.pos]
        return ParseError(message, token.line, token.column)

    def found(self) -> str:
        lexeme = self.lexemes[self.pos]
        if not lexeme:
            return "end of input"
        return repr(string_value(lexeme) if is_string(lexeme) else lexeme)

    def unexpected(self, wanted: str) -> ParseError:
        return self.error(f"expected {wanted}, found {self.found()}")

    def expect(self, lexeme: str) -> None:
        """Step over ``lexeme``, a keyword or a punctuation mark."""
        if self.lexemes[self.pos] != lexeme:
            raise self.unexpected(repr(lexeme))
        self.pos += 1

    def accept(self, lexeme: str) -> bool:
        if self.lexemes[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def expect_ident(self, what: str = "identifier") -> str:
        lexeme = self.lexemes[self.pos]
        if not is_identifier(lexeme):
            raise self.unexpected(what)
        self.pos += 1
        return lexeme

    def expect_string(self) -> str:
        lexeme = self.lexemes[self.pos]
        if not is_string(lexeme):
            raise self.unexpected("'string'")
        self.pos += 1
        return string_value(lexeme)

    def skip_semis(self) -> None:
        while self.lexemes[self.pos] in (";", ","):
            self.pos += 1

    def braced(self, parse_one: Callable[[], T]) -> Tuple[T, ...]:
        """``"{" { one } "}"``, separators tolerated around every ``one``."""
        self.expect("{")
        self.skip_semis()
        items: List[T] = []
        while self.lexemes[self.pos] not in _BLOCK_END:
            items.append(parse_one())
            self.skip_semis()
        self.expect("}")
        return tuple(items)

    # -- entry point ------------------------------------------------------------------

    def parse_script(self) -> Script:
        try:
            self.skip_semis()
            while self.peek():
                self.parse_item()
                self.skip_semis()
        except SchemaError:
            tokenize(self.text)  # a lexical error anywhere is reported first
            raise
        return self.script

    def parse_item(self) -> None:
        lexeme = self.peek()
        if lexeme == "class":
            self.parse_class()
        elif lexeme == "taskclass":
            self.script.add_taskclass(self.parse_taskclass())
        elif lexeme == "task":
            self.script.add_task(self.parse_task())
        elif lexeme == "compoundtask":
            self.script.add_task(self.parse_compoundtask())
        elif lexeme == "tasktemplate":
            self.script.add_template(self.parse_template())
        elif is_identifier(lexeme):
            self.parse_instantiation(into_compound=None)
        else:
            raise self.error(f"unexpected {self.found()} at top level")

    # -- classes ------------------------------------------------------------------------

    def parse_class(self) -> None:
        self.expect("class")
        name = self.expect_ident("class name")
        extends = None
        if self.accept("extends"):
            extends = self.expect_ident("superclass name")
        self.script.add_class(name, extends)

    # -- task classes ----------------------------------------------------------------------

    def parse_taskclass(self) -> TaskClass:
        self.expect("taskclass")
        name = self.expect_ident("taskclass name")
        self.expect("{")
        self.skip_semis()
        input_sets: List[InputSetSpec] = []
        outputs: List[OutputSpec] = []
        while self.lexemes[self.pos] not in _BLOCK_END:
            if self.accept("inputs"):
                input_sets.extend(self.braced(self.parse_inputset_spec))
            elif self.accept("outputs"):
                outputs.extend(self.braced(self.parse_output_spec))
            else:
                raise self.unexpected("'inputs' or 'outputs' in taskclass")
            self.skip_semis()
        self.expect("}")
        return TaskClass(name, tuple(input_sets), tuple(outputs))

    def parse_inputset_spec(self) -> InputSetSpec:
        self.expect("input")
        name = self.expect_ident("input set name")
        return InputSetSpec(name, self.braced(self.parse_object_decl))

    def parse_output_spec(self) -> OutputSpec:
        kind = self.parse_output_kind()
        name = self.expect_ident("output name")
        return OutputSpec(name, kind, self.braced(self.parse_object_decl))

    def parse_output_kind(self) -> OutputKind:
        if self.accept("abort"):
            self.expect("outcome")
            return OutputKind.ABORT
        if self.accept("repeat"):
            self.expect("outcome")
            return OutputKind.REPEAT
        if self.accept("mark"):
            return OutputKind.MARK
        self.expect("outcome")
        return OutputKind.OUTCOME

    def parse_object_decl(self) -> ObjectDecl:
        obj_name = self.expect_ident("object name")
        self.expect("of")
        self.expect("class")
        return ObjectDecl(obj_name, self.expect_ident("class name"))

    # -- task instances --------------------------------------------------------------------

    def parse_task(self) -> TaskDecl:
        self.expect("task")
        name = self.expect_ident("task name")
        self.expect("of")
        self.expect("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect("{")
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        while self.lexemes[self.pos] not in _BLOCK_END:
            if self.peek() == "implementation":
                implementation = self.parse_implementation()
            elif self.peek() == "inputs":
                input_sets = self.parse_inputs()
            else:
                raise self.unexpected("'implementation' or 'inputs'")
            self.skip_semis()
        self.expect("}")
        return TaskDecl(name, taskclass, implementation, input_sets)

    def parse_implementation(self) -> Implementation:
        self.expect("implementation")
        return Implementation(self.braced(self.parse_property))

    def parse_property(self) -> Tuple[str, str]:
        key = self.expect_string()
        self.expect("is")
        return key, self.expect_string()

    def parse_inputs(self) -> Tuple[InputSetBinding, ...]:
        self.expect("inputs")
        return self.braced(self.parse_input_set_binding)

    def parse_input_set_binding(self) -> InputSetBinding:
        self.expect("input")
        name = self.expect_ident("input set name")
        self.expect("{")
        self.skip_semis()
        objects: List[InputObjectBinding] = []
        notifications: List[NotificationBinding] = []
        while self.lexemes[self.pos] not in _BLOCK_END:
            if self.accept("inputobject"):
                obj_name = self.expect_ident("input object name")
                self.expect("from")
                objects.append(
                    InputObjectBinding(obj_name, self.braced(self.parse_object_source))
                )
            elif self.accept("notification"):
                self.expect("from")
                notifications.append(
                    NotificationBinding(self.braced(self.parse_notification_source))
                )
            elif is_identifier(self.peek()):
                # template shorthand:  i1 of task param1 if output success
                source = self.parse_object_source()
                objects.append(InputObjectBinding(source.object_name, (source,)))
            else:
                raise self.unexpected(
                    "'inputobject', 'notification' or a shorthand source"
                )
            self.skip_semis()
        self.expect("}")
        return InputSetBinding(name, tuple(objects), tuple(notifications))

    def parse_object_source(self) -> Source:
        object_name = self.expect_ident("source object name")
        self.expect("of")
        self.expect("task")
        task_name = self.expect_ident("task name")
        guard_kind, guard_name = self.parse_guard()
        return Source(task_name, object_name, guard_kind, guard_name)

    def parse_notification_source(self) -> Source:
        self.expect("task")
        task_name = self.expect_ident("task name")
        guard_kind, guard_name = self.parse_guard()
        return Source(task_name, None, guard_kind, guard_name)

    def parse_guard(self) -> Tuple[GuardKind, Optional[str]]:
        if not self.accept("if"):
            return GuardKind.ANY, None
        if self.accept("output"):
            return GuardKind.OUTPUT, self.expect_ident("output name")
        if self.accept("input"):
            return GuardKind.INPUT, self.expect_ident("input set name")
        raise self.error("expected 'output' or 'input' after 'if'")

    # -- compound tasks --------------------------------------------------------------------

    def parse_compoundtask(self) -> CompoundTaskDecl:
        self.expect("compoundtask")
        name = self.expect_ident("compound task name")
        self.expect("of")
        self.expect("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect("{")
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        tasks: List[Union[TaskDecl, CompoundTaskDecl]] = []
        outputs: Tuple[OutputBinding, ...] = ()
        while self.lexemes[self.pos] not in _BLOCK_END:
            lexeme = self.peek()
            if lexeme == "implementation":
                implementation = self.parse_implementation()
            elif lexeme == "inputs":
                input_sets = self.parse_inputs()
            elif lexeme == "task":
                tasks.append(self.parse_task())
            elif lexeme == "compoundtask":
                tasks.append(self.parse_compoundtask())
            elif lexeme == "outputs":
                outputs = self.parse_outputs_mapping()
            elif is_identifier(lexeme):
                tasks.append(self.parse_instantiation(into_compound=tasks))
            else:
                raise self.error(f"unexpected {self.found()} inside compound task")
            self.skip_semis()
        self.expect("}")
        return CompoundTaskDecl(
            name=name,
            taskclass_name=taskclass,
            implementation=implementation,
            input_sets=input_sets,
            tasks=tuple(tasks),
            outputs=outputs,
        )

    def parse_outputs_mapping(self) -> Tuple[OutputBinding, ...]:
        self.expect("outputs")
        self.expect("{")
        self.skip_semis()
        bindings: List[OutputBinding] = []
        while self.lexemes[self.pos] not in _BLOCK_END:
            _kind = self.parse_output_kind()  # kind is declared by the class
            name = self.expect_ident("output name")
            self.expect("{")
            self.skip_semis()
            objects: List[OutputObjectBinding] = []
            notifications: List[NotificationBinding] = []
            while self.lexemes[self.pos] not in _BLOCK_END:
                if self.accept("outputobject"):
                    obj_name = self.expect_ident("output object name")
                    self.expect("from")
                    objects.append(
                        OutputObjectBinding(obj_name, self.braced(self.parse_object_source))
                    )
                elif self.accept("notification"):
                    self.expect("from")
                    notifications.append(
                        NotificationBinding(self.braced(self.parse_notification_source))
                    )
                else:
                    raise self.unexpected("'outputobject' or 'notification'")
                self.skip_semis()
            self.expect("}")
            bindings.append(OutputBinding(name, tuple(objects), tuple(notifications)))
            self.skip_semis()
        self.expect("}")
        return tuple(bindings)

    # -- templates -----------------------------------------------------------------------

    def parse_template(self) -> TaskTemplate:
        self.expect("tasktemplate")
        compound = self.accept("compoundtask")
        if not compound:
            self.expect("task")
        name = self.expect_ident("template name")
        self.expect("of")
        self.expect("taskclass")
        taskclass = self.expect_ident("taskclass name")
        self.expect("{")
        self.skip_semis()
        self.expect("parameters")
        parameters = self.braced(lambda: self.expect_ident("parameter name"))
        self.skip_semis()
        implementation = Implementation()
        input_sets: Tuple[InputSetBinding, ...] = ()
        tasks: List[Union[TaskDecl, CompoundTaskDecl]] = []
        outputs: Tuple[OutputBinding, ...] = ()
        while self.lexemes[self.pos] not in _BLOCK_END:
            lexeme = self.peek()
            if lexeme == "implementation":
                implementation = self.parse_implementation()
            elif lexeme == "inputs":
                input_sets = self.parse_inputs()
            elif compound and lexeme == "task":
                tasks.append(self.parse_task())
            elif compound and lexeme == "compoundtask":
                tasks.append(self.parse_compoundtask())
            elif compound and lexeme == "outputs":
                outputs = self.parse_outputs_mapping()
            else:
                raise self.error(f"unexpected {self.found()} in template body")
            self.skip_semis()
        self.expect("}")
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
        self.expect("of")
        self.expect("tasktemplate")
        template_name = self.expect_ident("template name")
        self.expect("(")
        arguments: List[str] = []
        while self.peek() != ")":
            arguments.append(self.expect_ident("template argument"))
            self.accept(",")
        self.expect(")")
        if template_name not in self.script.templates:
            raise self.error(f"unknown tasktemplate {template_name!r}")
        template = self.script.templates[template_name]
        decl = template.instantiate(instance_name, tuple(arguments))
        if into_compound is None:
            self.script.add_task(decl)
        return decl


def parse(text: str) -> Script:
    """Parse a script from source text (no semantic validation)."""
    return Parser(text).parse_script()
