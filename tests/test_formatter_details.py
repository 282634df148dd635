"""Detailed formatter coverage: compound templates, implementation property
ordering, nested output kinds."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SchemaError
from repro.core.schema import Implementation, OutputKind
from repro.lang import compile_script, format_script, parse


COMPOUND_TEMPLATE = """
class Data;

taskclass Leaf
{
    inputs { input main { inp of class Data } };
    outputs { outcome done { out of class Data } }
};

taskclass Wrap
{
    inputs { input main { inp of class Data } };
    outputs { outcome done { out of class Data } }
};

tasktemplate compoundtask wrapper of taskclass Wrap
{
    parameters { feeder };
    inputs
    {
        input main
        {
            inputobject inp from { out of task feeder if output done }
        }
    };
    task leaf of taskclass Leaf
    {
        implementation { "code" is "leaf" };
        inputs
        {
            input main
            {
                inputobject inp from { inp of task wrapper if input main }
            }
        }
    };
    outputs
    {
        outcome done { outputobject out from { out of task leaf if output done } }
    }
};
"""


class TestCompoundTemplates:
    def test_compound_template_parses(self):
        script = parse(COMPOUND_TEMPLATE)
        template = script.templates["wrapper"]
        assert template.parameters == ("feeder",)
        assert template.body.is_compound
        assert template.body.task("leaf") is not None

    def test_compound_template_roundtrips(self):
        script = parse(COMPOUND_TEMPLATE)
        again = parse(format_script(script))
        assert again.templates["wrapper"].body == script.templates["wrapper"].body

    def test_compound_template_instantiates_with_substitution(self):
        text = COMPOUND_TEMPLATE + """
        taskclass Source { outputs { outcome done { out of class Data } } };
        task src of taskclass Source { implementation { "code" is "src" } };
        w1 of tasktemplate wrapper(src);
        """
        script = parse(text)
        w1 = script.tasks["w1"]
        source = w1.input_sets[0].objects[0].sources[0]
        assert source.task_name == "src"
        # inner references to the template's own name were renamed
        inner_source = w1.task("leaf").input_sets[0].objects[0].sources[0]
        assert inner_source.task_name == "w1"


class TestImplementationFormatting:
    def test_multiple_properties_roundtrip(self):
        text = """
        taskclass T { outputs { outcome ok { } } }
        task t of taskclass T
        {
            implementation
            {
                "code" is "refT", "priority" is "3", "location" is "worker-2",
                "deadline" is "60"
            }
        }
        """
        script = parse(text)
        again = parse(format_script(script))
        assert again.tasks["t"].implementation == script.tasks["t"].implementation
        assert again.tasks["t"].implementation.as_dict()["location"] == "worker-2"

    def test_empty_implementation_omitted(self):
        text = 'taskclass T { outputs { outcome ok { } } } task t of taskclass T { }'
        rendered = format_script(parse(text))
        assert "implementation" not in rendered


def with_property(keyword, value):
    """A script whose nested task ``outer/inner`` carries one property."""
    script = parse(
        """
        taskclass T { outputs { outcome ok { } } }
        compoundtask outer of taskclass T { task inner of taskclass T { } }
        """
    )
    outer = script.tasks["outer"]
    inner = dataclasses.replace(
        outer.tasks[0], implementation=Implementation(((keyword, value),))
    )
    script.tasks["outer"] = dataclasses.replace(outer, tasks=(inner,))
    return script


class TestUnspellableProperties:
    """The language has no escapes: what no string literal reads back as
    itself is refused, not written (it used to format to text that failed to
    parse, or re-parsed as something else)."""

    @pytest.mark.parametrize(
        "value", ['say "hi"', "two\nlines", "a ” b", " padded ", "tab\t", "\xa0nbsp"]
    )
    def test_value_refused_naming_task_path_and_property(self, value):
        with pytest.raises(SchemaError) as caught:
            format_script(with_property("code", value))
        assert caught.value.location == "outer/inner"
        assert "'code'" in str(caught.value) and repr(value) in str(caught.value)

    def test_keyword_refused_too(self):
        with pytest.raises(SchemaError, match="outer/inner.*'co\"de'"):
            format_script(with_property('co"de', "x"))

    def test_template_body_is_named_by_the_template(self):
        script = parse(COMPOUND_TEMPLATE)
        template = script.templates["wrapper"]
        leaf = dataclasses.replace(
            template.body.tasks[0], implementation=Implementation((("code", '"'),))
        )
        script.templates["wrapper"] = dataclasses.replace(
            template, body=dataclasses.replace(template.body, tasks=(leaf,))
        )
        with pytest.raises(SchemaError) as caught:
            format_script(script)
        assert caught.value.location == "wrapper/leaf"

    @pytest.mark.parametrize("value", ["", "a “ b", "it's", "a\rb", "x // y", "/* z */", "a  b"])
    def test_spellable_oddities_round_trip(self, value):
        script = with_property("code", value)
        assert parse(format_script(script)) == script

    # every text the lexer can read: no closing quote, no newline, no outer blank
    spellable = st.text(
        alphabet=st.characters(blacklist_characters='"”\n'), max_size=20
    ).map(str.strip)

    @given(spellable, spellable)
    def test_any_spellable_property_round_trips(self, keyword, value):
        script = with_property(keyword, value)
        assert parse(format_script(script)) == script

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_written_means_reads_back(self, keyword, value):
        script = with_property(keyword, value)
        try:
            text = format_script(script)
        except SchemaError:
            return
        assert parse(text) == script


class TestOutputKindRendering:
    def test_every_kind_renders_and_reparses(self):
        text = """
        class Data;
        taskclass T
        {
            outputs
            {
                outcome a { x of class Data };
                repeat outcome c { };
                mark d { y of class Data }
            }
        }
        taskclass U { outputs { outcome ok { }; abort outcome b { } } }
        """
        script = parse(text)
        again = parse(format_script(script))
        t = again.taskclasses["T"]
        assert t.output("a").kind is OutputKind.OUTCOME
        assert t.output("c").kind is OutputKind.REPEAT
        assert t.output("d").kind is OutputKind.MARK
        assert again.taskclasses["U"].output("b").kind is OutputKind.ABORT

    def test_compound_mark_output_mapping_renders_kind(self):
        from repro.workloads import paper_trip

        rendered = format_script(paper_trip.build())
        assert "mark toPay" in rendered
        assert "repeat outcome retry" in rendered
        assert "abort outcome reservationAborted" in rendered
