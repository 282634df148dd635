"""Unit tests for the language front end: lexer, parser, formatter."""

import pytest

from repro.core.errors import ParseError, ValidationReport
from repro.core.schema import GuardKind, OutputKind
from repro.lang import compile_script, format_script, parse, tokenize
from repro.lang.lexer import TokenType


class TestLexer:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("task foo of taskclass Bar")
        kinds = [(t.type, t.value) for t in tokens[:-1]]
        assert kinds == [
            (TokenType.KEYWORD, "task"),
            (TokenType.IDENT, "foo"),
            (TokenType.KEYWORD, "of"),
            (TokenType.KEYWORD, "taskclass"),
            (TokenType.IDENT, "Bar"),
        ]

    def test_straight_strings(self):
        tokens = tokenize('"code" is "SETPayment"')
        assert tokens[0].type is TokenType.STRING and tokens[0].value == "code"

    def test_typographic_quotes_accepted(self):
        # the paper's own listings use curly quotes
        tokens = tokenize("“code” is “refDispatch”")
        assert tokens[0].value == "code"
        assert tokens[2].value == "refDispatch"

    def test_line_comments_skipped(self):
        tokens = tokenize("class A; // the account class\nclass B;")
        values = [t.value for t in tokens if t.type is TokenType.IDENT]
        assert values == ["A", "B"]

    def test_block_comments_skipped(self):
        tokens = tokenize("class /* hidden */ A;")
        assert any(t.value == "A" for t in tokens)

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(ParseError):
            tokenize("/* forever")

    def test_unterminated_string_rejected(self):
        with pytest.raises(ParseError):
            tokenize('"never closed')

    def test_unexpected_character_rejected(self):
        with pytest.raises(ParseError) as info:
            tokenize("class A @ B")
        assert info.value.line == 1

    def test_line_column_tracking(self):
        tokens = tokenize("class A;\n  class B;")
        b_token = [t for t in tokens if t.value == "B"][0]
        assert b_token.line == 2
        assert b_token.column == 9


class TestEndOfInput:
    """A parse error at the end of the text says so (it used to report
    ``found ''``), at the position of the EOF token."""

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("task", "expected task name, found end of input", 1, 5),
            ("task t of\n", "expected 'taskclass', found end of input", 2, 1),
            ("taskclass T {", "expected '}', found end of input", 1, 14),
            ("class A; // c\n  class", "expected class name, found end of input", 2, 8),
        ],
    )
    def test_found_end_of_input(self, text, message, line, column):
        with pytest.raises(ParseError) as caught:
            parse(text)
        error = caught.value
        assert (str(error), error.line, error.column) == (
            f"line {line}, column {column}: {message}", line, column
        )

    def test_elsewhere_the_token_is_quoted_as_before(self):
        with pytest.raises(ParseError, match="expected task name, found '{'"):
            parse("task {")
        with pytest.raises(ParseError, match="expected 'string', found 'x'"):
            parse("taskclass T { } task t of taskclass T { implementation { x } }")


class TestParserBasics:
    def test_class_declarations(self):
        script = parse("class Account; class Item;")
        assert set(script.classes) == {"Account", "Item"}

    def test_taskclass_with_inputs_and_outputs(self):
        script = parse(
            """
            class A;
            taskclass T {
                inputs { input main { x of class A } };
                outputs {
                    outcome ok { y of class A };
                    repeat outcome again { };
                    mark progress { }
                }
            }
            taskclass Atomic {
                outputs { outcome ok { }; abort outcome bad { } }
            }
            """
        )
        tc = script.taskclasses["T"]
        assert tc.input_set("main").object("x").class_name == "A"
        assert tc.output("ok").kind is OutputKind.OUTCOME
        assert tc.output("again").kind is OutputKind.REPEAT
        assert tc.output("progress").kind is OutputKind.MARK
        assert script.taskclasses["Atomic"].output("bad").kind is OutputKind.ABORT

    def test_task_with_implementation_properties(self):
        script = parse(
            """
            taskclass T { outputs { outcome ok { } } }
            task t of taskclass T {
                implementation { "code" is "refT", "priority" is "5" }
            }
            """
        )
        impl = script.tasks["t"].implementation
        assert impl.code == "refT"
        assert impl.get("priority") == "5"

    def test_sources_with_guards(self):
        script = parse(
            """
            class A;
            taskclass T {
                inputs { input main { x of class A } };
                outputs { outcome ok { x of class A } }
            }
            task t1 of taskclass T {
                inputs { input main { inputobject x from {
                    x of task t0 if output ok;
                    x of task t0 if input main;
                    x of task t0
                } } }
            }
            """
        )
        sources = script.tasks["t1"].input_sets[0].objects[0].sources
        assert sources[0].guard_kind is GuardKind.OUTPUT
        assert sources[1].guard_kind is GuardKind.INPUT
        assert sources[2].guard_kind is GuardKind.ANY

    def test_notifications(self):
        script = parse(
            """
            taskclass T { outputs { outcome ok { } } }
            task t1 of taskclass T {
                inputs { input main {
                    notification from { task a if output ok; task b if output ok };
                    notification from { task c if output ok }
                } }
            }
            """
        )
        binding = script.tasks["t1"].input_sets[0]
        assert len(binding.notifications) == 2
        assert len(binding.notifications[0].sources) == 2

    def test_stray_semicolons_tolerated(self):
        script = parse(";;; class A;;; taskclass T { outputs { outcome ok { };;; } };;;")
        assert "A" in script.classes and "T" in script.taskclasses

    def test_missing_brace_reports_position(self):
        with pytest.raises(ParseError):
            parse("taskclass T { outputs { outcome ok { }")

    def test_bad_guard_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "taskclass T { outputs { outcome ok { } } }"
                "task t of taskclass T { inputs { input m {"
                " notification from { task a if banana ok } } } }"
            )


class TestParserCompound:
    SOURCE = """
        class A;
        taskclass Inner {
            inputs { input main { x of class A } };
            outputs { outcome ok { y of class A } }
        }
        taskclass Outer {
            inputs { input main { x of class A } };
            outputs { outcome done { y of class A } }
        }
        compoundtask outer of taskclass Outer {
            task inner of taskclass Inner {
                implementation { "code" is "c" };
                inputs { input main { inputobject x from {
                    x of task outer if input main
                } } }
            };
            outputs {
                outcome done {
                    outputobject y from { y of task inner if output ok }
                }
            }
        }
    """

    def test_compound_parsed(self):
        script = parse(self.SOURCE)
        outer = script.tasks["outer"]
        assert outer.is_compound
        assert outer.task("inner") is not None
        assert outer.outputs[0].objects[0].sources[0].task_name == "inner"

    def test_compound_validates(self):
        compile_script(self.SOURCE)

    def test_nested_compound(self):
        script = parse(
            """
            class A;
            taskclass L { inputs { input main { x of class A } };
                          outputs { outcome ok { y of class A } } }
            taskclass M { inputs { input main { x of class A } };
                          outputs { outcome ok { y of class A } } }
            taskclass N { inputs { input main { x of class A } };
                          outputs { outcome ok { y of class A } } }
            compoundtask top of taskclass N {
                compoundtask mid of taskclass M {
                    inputs { input main { inputobject x from { x of task top if input main } } };
                    task leaf of taskclass L {
                        implementation { "code" is "c" };
                        inputs { input main { inputobject x from { x of task mid if input main } } }
                    };
                    outputs { outcome ok { outputobject y from { y of task leaf if output ok } } }
                };
                outputs { outcome ok { outputobject y from { y of task mid if output ok } } }
            }
            """
        )
        top = script.tasks["top"]
        assert top.task("mid").task("leaf") is not None


class TestTemplates:
    SOURCE = """
        class A;
        taskclass T {
            inputs { input main { i1 of class A } };
            outputs { outcome success { i1 of class A } }
        }
        tasktemplate task tmpl of taskclass T {
            parameters { param1 };
            implementation { "code" is "c" };
            inputs { input main { i1 of task param1 if output success } }
        }
        myTask of tasktemplate tmpl(other);
    """

    def test_template_instantiation(self):
        script = parse(self.SOURCE)
        decl = script.tasks["myTask"]
        assert decl.input_sets[0].objects[0].sources[0].task_name == "other"

    def test_template_stored(self):
        script = parse(self.SOURCE)
        assert "tmpl" in script.templates
        assert script.templates["tmpl"].parameters == ("param1",)

    def test_shorthand_source_becomes_input_object(self):
        script = parse(self.SOURCE)
        binding = script.templates["tmpl"].body.input_sets[0].objects[0]
        assert binding.name == "i1"

    def test_unknown_template_rejected(self):
        with pytest.raises(ParseError):
            parse("x of tasktemplate ghost();")

    def test_wrong_arity_rejected(self):
        with pytest.raises(Exception):
            parse(self.SOURCE.replace("tmpl(other)", "tmpl(a, b)"))


class TestFormatterRoundTrip:
    def roundtrip(self, text):
        script = parse(text)
        text2 = format_script(script)
        script2 = parse(text2)
        assert script2.classes == script.classes
        assert script2.taskclasses == script.taskclasses
        assert script2.tasks == script.tasks
        return script, text2

    def test_roundtrip_order_app(self):
        from repro.workloads import paper_order

        self.roundtrip(paper_order.SCRIPT_TEXT)

    def test_roundtrip_trip_app(self):
        from repro.workloads import paper_trip

        self.roundtrip(paper_trip.SCRIPT_TEXT)

    def test_roundtrip_service_impact_app(self):
        from repro.workloads import paper_service_impact

        self.roundtrip(paper_service_impact.SCRIPT_TEXT)

    def test_formatting_is_canonical_fixpoint(self):
        from repro.workloads import paper_order

        script = parse(paper_order.SCRIPT_TEXT)
        once = format_script(script)
        twice = format_script(parse(once))
        assert once == twice

    def test_roundtrip_preserves_templates(self):
        text = TestTemplates.SOURCE
        script = parse(text)
        script2 = parse(format_script(script))
        assert script2.templates.keys() == script.templates.keys()
        assert script2.templates["tmpl"].body == script.templates["tmpl"].body


class TestCompileScript:
    def test_compile_rejects_semantic_errors(self):
        with pytest.raises(ValidationReport):
            compile_script(
                "taskclass T { outputs { outcome ok { } } }"
                "task t of taskclass Ghost { }"
            )

    def test_compile_rejects_syntax_errors(self):
        with pytest.raises(ParseError):
            compile_script("task task task")
