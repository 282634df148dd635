#!/usr/bin/env python3
"""Task templates: declare a parameterised task once, instantiate it twice.

A loan application is screened by two credit bureaus.  Both screenings are
the same task but for who they screen for, so the script declares it once as
a ``tasktemplate`` whose parameter stands for the task that supplies the
application (the paper's task templates, §4.5), and instantiates it twice
inside the compound task.  Inside a template body ``app of task intake if
output received`` is the shorthand for an input object ``app`` with that
single source; an instantiation substitutes its arguments for the
parameters positionally.  A template can also be stamped into a *running*
instance (§5.3's dynamic parallel requests): when one bureau never answers,
a third is instantiated and the decision rewired to read it instead.

Run:  python examples/task_templates.py
"""

from repro import ImplementationRegistry, LocalEngine, compile_script, outcome, pending
from repro.core import AddDependency, AddTemplateInstances, RemoveDependency, apply_changes
from repro.core.schema import GuardKind, Source
from repro.lang import format_script

SCRIPT = """
class Application;
class Report;

taskclass Receive
{
    inputs { input main { app of class Application } };
    outputs { outcome received { app of class Application } }
};

taskclass Screen
{
    inputs { input main { app of class Application } };
    outputs { outcome cleared { report of class Report } }
};

taskclass Decide
{
    inputs { input main { first of class Report; second of class Report } };
    outputs { outcome approved { reports of class Report } }
};

taskclass Loan
{
    inputs { input main { app of class Application } };
    outputs { outcome approved { reports of class Report } }
};

tasktemplate task screen of taskclass Screen
{
    parameters { intake };
    implementation { "code" is "refScreen" };
    inputs { input main { app of task intake if output received } }
};

compoundtask loan of taskclass Loan
{
    task receive of taskclass Receive
    {
        implementation { "code" is "refReceive" };
        inputs
        {
            input main
            {
                inputobject app from { app of task loan if input main }
            }
        }
    };
    bureauA of tasktemplate screen(receive);
    bureauB of tasktemplate screen(receive);
    task decide of taskclass Decide
    {
        implementation { "code" is "refDecide" };
        inputs
        {
            input main
            {
                inputobject first from { report of task bureauA if output cleared };
                inputobject second from { report of task bureauB if output cleared }
            }
        }
    };
    outputs
    {
        outcome approved
        {
            outputobject reports from { reports of task decide if output approved }
        }
    }
};
"""


def main() -> None:
    script = compile_script(SCRIPT)  # parse, instantiate the templates, validate
    template = script.templates["screen"]
    print(f"template : {template.name}({', '.join(template.parameters)})")
    loan = script.tasks["loan"]
    for name in ("bureauA", "bureauB"):
        source = loan.task(name).input_sets[0].objects[0].sources[0]
        print(f"instance : {name} reads {source.object_name} of task {source.task_name}")

    def screen(ctx):
        bureau = ctx.task_path.rsplit("/", 1)[-1]  # the instance's name
        return outcome("cleared", report=f"{bureau}: {ctx.value('app')} clear")

    registry = ImplementationRegistry()
    registry.register("refReceive", lambda ctx: outcome("received", app=ctx.value("app")))
    registry.register("refScreen", screen)
    registry.register(
        "refDecide",
        lambda ctx: outcome("approved", reports=[ctx.value("first"), ctx.value("second")]),
    )
    result = LocalEngine(registry).run(script, inputs={"app": "alice"})
    print(f"status   : {result.status.value}")
    print(f"outcome  : {result.outcome}")
    print(f"reports  : {result.value('reports')}")
    assert result.value("reports") == ["bureauA: alice clear", "bureauB: alice clear"]

    canonical = format_script(script)  # the template and both instantiations
    assert compile_script(canonical).tasks == script.tasks
    print(f"formatter: canonical text round-trips ({len(canonical)} chars)")

    # bureau B is down: its screening never answers and the loan stalls
    registry.register(
        "refScreen", lambda ctx: pending("down") if ctx.task_path.endswith("B") else screen(ctx)
    )
    workflow = LocalEngine(registry).workflow(script)
    workflow.start({"app": "bob"})
    workflow.run_to_completion()
    print(f"\nbureauB down: {workflow.status.value}")
    from_c = Source("bureauC", "report", GuardKind.OUTPUT, "cleared")
    workflow.reconfigure(apply_changes(workflow.tree.script, [
        AddTemplateInstances("loan", "screen", (("bureauC", ("receive",)),)),
        RemoveDependency("loan/decide", "main", object_name="second"),
        AddDependency("loan/decide", "main", "second", (from_c,)),
    ]))
    result = workflow.run_to_completion()
    print(f"bureauC added: {result.outcome} {result.value('reports')}")
    assert result.value("reports") == ["bureauA: bob clear", "bureauC: bob clear"]


if __name__ == "__main__":
    main()
