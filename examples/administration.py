#!/usr/bin/env python3
"""The administrative surface of the distributed system (§3), live.

The paper's management tools are themselves workflows: a reconfiguration
workflow applies a schema change to a *running* instance through the
execution service, and a monitoring workflow polls the instance, looping on
a repeat outcome, until it ends.  Here the Fig. 1 workflow (t1 -> {t2, t3}
-> t4) is running when its join t4 is replaced by an audited join t5 and
t3's implementation is upgraded; the execution service journals the change
atomically and carries on.  An operator's per-task view follows, and then a
second instance is migrated: exported from one execution service and
imported into another, which finishes it from the journal — even after the
script has been removed from the source's repository, since an instance
carries its own script.

Run:  python examples/administration.py
"""

from repro.core import (
    AddTask,
    Implementation,
    RemoveTask,
    ReplaceImplementation,
    ReplaceOutputMapping,
    apply_changes,
)
from repro.core.schema import (
    GuardKind,
    InputObjectBinding,
    InputSetBinding,
    OutputBinding,
    OutputObjectBinding,
    Source,
    TaskDecl,
)
from repro.engine import LocalEngine, outcome
from repro.lang import format_script
from repro.services import WorkflowSystem, admin_registry, build_monitor, build_reconfigure
from repro.workloads import diamond


def audited_join(script):
    """t5 joins t2 and t3 in t4's place; t3 runs an upgraded implementation."""
    t5 = TaskDecl(
        "t5",
        "Join",
        Implementation.of(code="audit"),
        (
            InputSetBinding(
                "main",
                (
                    InputObjectBinding("left", (Source("t2", "out", GuardKind.OUTPUT, "done"),)),
                    InputObjectBinding("right", (Source("t3", "out", GuardKind.OUTPUT, "done"),)),
                ),
            ),
        ),
    )
    output = OutputBinding(
        "done", (OutputObjectBinding("out", (Source("t5", "out", GuardKind.OUTPUT, "done"),)),)
    )
    return apply_changes(script, [
        AddTask("fig1", t5),
        ReplaceOutputMapping("fig1", output),
        RemoveTask("fig1", "t4"),  # refused while anything still depended on it
        ReplaceImplementation("fig1/t3", Implementation.of(code="consume2")),
    ])


def main() -> None:
    script, registry, root, inputs = diamond()
    registry.register(
        "audit", lambda ctx: outcome("done", out=f"audit({ctx.value('left')},{ctx.value('right')})")
    )
    registry.register("consume2", lambda ctx: outcome("done", out=f"c2({ctx.value('inp')})"))
    system = WorkflowSystem(workers=2, registry=registry)
    system.deploy("fig1", format_script(script))
    iid = system.instantiate("fig1", root, inputs)  # t1 is in flight

    admin = admin_registry(system)
    change = LocalEngine(admin).run(
        build_reconfigure(),
        inputs={"instance": iid, "script": format_script(audited_join(script))},
    )
    print(f"reconfiguration workflow: {change.outcome} ({change.value('report')})")

    poll = admin.resolve("refCheckStatus")

    def poll_while_time_passes(ctx):
        system.clock.advance(5.0)  # the target runs between polls
        return poll(ctx)

    admin.register("refCheckStatus", poll_while_time_passes)
    report = LocalEngine(admin).run(build_monitor(), inputs={"instance": iid})
    print(f"monitoring workflow     : {report.value('report')}")

    execution = system.execution_proxy()
    print(f"instances               : {execution.list_instances()}")
    for row in execution.tasks(iid):
        print(f"  {row['path']:<8} {row['state']:<10} {row['outcome']}")
    result = execution.result(iid)
    print(f"output                  : {result['objects']['out']['value']}")
    assert result["objects"]["out"]["value"] == "audit(fig1/t2,c2(fig1/t1))"

    moving = system.instantiate("fig1", root, inputs)
    system.clock.advance(4.0)  # part-way through
    snapshot = execution.export_instance(moving)
    repository = system.repository_proxy()
    assert repository.remove_script("fig1") and repository.list_scripts() == []
    target = WorkflowSystem(workers=2, registry=registry)
    target.execution_proxy().import_instance(snapshot)
    assert snapshot["journal"]  # t1's result, at least
    moved = target.run_until_terminal(moving)
    print(f"migrated {moving} after {len(snapshot['journal'])} journal entries: "
          f"{moved['status']} on the target")
    assert moved["status"] == "completed"


if __name__ == "__main__":
    main()
