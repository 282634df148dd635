"""Tests for object-class sub-typing (the paper's §7 future-work extension)."""

import pytest

from repro.core import ScriptBuilder, ValidationReport, from_input, from_output
from repro.engine import ImplementationRegistry, LocalEngine, outcome
from repro.lang import compile_script, format_script, parse


def hierarchy_builder():
    b = ScriptBuilder()
    b.object_class("Account")
    b.object_class("SavingsAccount", extends="Account")
    b.object_class("JuniorSavings", extends="SavingsAccount")
    b.object_class("Loan")
    return b


class TestHierarchy:
    def test_is_subclass_reflexive(self):
        script = hierarchy_builder().build(validate=False)
        assert script.is_subclass("Account", "Account")

    def test_is_subclass_direct_and_transitive(self):
        script = hierarchy_builder().build(validate=False)
        assert script.is_subclass("SavingsAccount", "Account")
        assert script.is_subclass("JuniorSavings", "Account")

    def test_is_subclass_not_reversed(self):
        script = hierarchy_builder().build(validate=False)
        assert not script.is_subclass("Account", "SavingsAccount")

    def test_unrelated_classes(self):
        script = hierarchy_builder().build(validate=False)
        assert not script.is_subclass("Loan", "Account")


class TestValidationWithSubtypes:
    def build(self, produced: str, expected: str):
        b = hierarchy_builder()
        b.taskclass("Producer").input_set("main").outcome("done", out=produced)
        b.taskclass("Consumer").input_set("main", inp=expected).outcome("done")
        b.taskclass("Root").input_set("main").outcome("done")
        c = b.compound("wf", "Root")
        c.task("p", "Producer").implementation(code="p").notify(
            "main", from_input("wf", "main")
        ).up()
        c.task("q", "Consumer").implementation(code="q").input(
            "main", "inp", from_output("p", "done", "out")
        ).up()
        c.output("done").notify(from_output("q", "done")).up()
        c.up()
        return b

    def test_subclass_flows_to_superclass_slot(self):
        self.build("SavingsAccount", "Account").build()  # validates

    def test_deep_subclass_accepted(self):
        self.build("JuniorSavings", "Account").build()

    def test_superclass_to_subclass_rejected(self):
        with pytest.raises(ValidationReport):
            self.build("Account", "SavingsAccount").build()

    def test_unrelated_rejected(self):
        with pytest.raises(ValidationReport):
            self.build("Loan", "Account").build()

    def test_extends_undeclared_class_rejected(self):
        b = ScriptBuilder()
        b.object_class("X", extends="Ghost")
        from repro.core import validate_script

        errors = validate_script(b.build(validate=False))
        assert any("undeclared class 'Ghost'" in str(e) for e in errors)

    def test_inheritance_cycle_rejected(self):
        b = ScriptBuilder()
        b.object_class("A", extends="B")
        b.object_class("B", extends="A")
        from repro.core import validate_script

        errors = validate_script(b.build(validate=False))
        assert any("inheritance cycle" in str(e) for e in errors)


class TestLanguageSupport:
    def test_parse_extends(self):
        script = parse("class Account; class SavingsAccount extends Account;")
        assert script.classes["SavingsAccount"] == "Account"
        assert script.classes["Account"] is None

    def test_format_roundtrip_with_extends(self):
        script = parse("class Account; class SavingsAccount extends Account;")
        again = parse(format_script(script))
        assert again.classes == script.classes

    def test_building_block_task_over_supertype(self):
        """The §7 motivation: one task operating on the standard supertype
        serves every subclass."""
        text = """
        class Account;
        class SavingsAccount extends Account;

        taskclass OpenSavings
        {
            inputs { input main { } };
            outputs { outcome opened { account of class SavingsAccount } }
        };
        taskclass Audit
        {
            inputs { input main { account of class Account } };
            outputs { outcome audited { report of class Account } }
        };
        taskclass Root
        {
            inputs { input main { } };
            outputs { outcome done { report of class Account } }
        };
        compoundtask wf of taskclass Root
        {
            task open of taskclass OpenSavings
            {
                implementation { "code" is "open" };
                inputs { input main { notification from { task wf if input main } } }
            };
            task audit of taskclass Audit
            {
                implementation { "code" is "audit" };
                inputs
                {
                    input main
                    {
                        inputobject account from { account of task open if output opened }
                    }
                }
            };
            outputs
            {
                outcome done
                {
                    outputobject report from { report of task audit if output audited }
                }
            }
        };
        """
        script = compile_script(text)
        reg = ImplementationRegistry()
        reg.register("open", lambda ctx: outcome("opened", account="acct-9"))
        reg.register(
            "audit", lambda ctx: outcome("audited", report=f"ok:{ctx.value('account')}")
        )
        result = LocalEngine(reg).run(script, inputs={})
        assert result.completed
        assert result.value("report") == "ok:acct-9"
