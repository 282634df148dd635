#!/usr/bin/env python3
"""Long-running interactive tasks: a purchase approval workflow.

The paper motivates the language with applications that "may contain long
periods of inactivity, often due to the constituent applications requiring
user interactions" (§1).  Here the `approve` task parks itself with
``pending()``.  On the in-process engine the run stalls until the decision
is supplied from outside.  On the distributed system the workflow survives
an execution-node crash while parked, and a (simulated) manager later
supplies the decision through the execution service — journaled like any
other result.  A second request is withdrawn while it waits: the execution
service aborts the parked task from the outside (Fig. 3's abort-from-wait),
journaled too.

Run:  python examples/human_approval.py
"""

from repro import ImplementationRegistry, LocalEngine, compile_script, outcome, pending
from repro.services import WorkflowSystem

SCRIPT = """
class Request;
class Decision;
class Confirmation;

taskclass Prepare
{
    inputs { input main { request of class Request } };
    outputs { outcome prepared { request of class Request } }
};

taskclass ManagerApproval
{
    inputs { input main { request of class Request } };
    outputs
    {
        outcome approved { decision of class Decision };
        outcome denied { };
        abort outcome withdrawn { }
    }
};

taskclass PlaceOrder
{
    inputs { input main { decision of class Decision } };
    outputs { outcome placed { confirmation of class Confirmation } }
};

taskclass Purchase
{
    inputs { input main { request of class Request } };
    outputs
    {
        outcome purchased { confirmation of class Confirmation };
        outcome declined { };
        outcome withdrawn { }
    }
};

compoundtask purchase of taskclass Purchase
{
    task prepare of taskclass Prepare
    {
        implementation { "code" is "refPrepare" };
        inputs { input main { inputobject request from
            { request of task purchase if input main } } }
    };
    task approve of taskclass ManagerApproval
    {
        implementation { "code" is "refApprove" };
        inputs { input main { inputobject request from
            { request of task prepare if output prepared } } }
    };
    task placeOrder of taskclass PlaceOrder
    {
        implementation { "code" is "refPlaceOrder" };
        inputs { input main { inputobject decision from
            { decision of task approve if output approved } } }
    };
    outputs
    {
        outcome purchased
        {
            outputobject confirmation from
            { confirmation of task placeOrder if output placed }
        };
        outcome declined { notification from { task approve if output denied } };
        outcome withdrawn { notification from { task approve if output withdrawn } }
    }
};
"""


def main() -> None:
    registry = ImplementationRegistry()
    registry.register(
        "refPrepare", lambda ctx: outcome("prepared", request=ctx.value("request"))
    )
    registry.register("refApprove", lambda ctx: pending("manager inbox"))
    registry.register(
        "refPlaceOrder",
        lambda ctx: outcome("placed", confirmation=f"PO#{ctx.value('decision')}"),
    )

    # in process first: the parked task stalls the run until the decision
    # is supplied from outside
    workflow = LocalEngine(registry).workflow(compile_script(SCRIPT))
    workflow.start({"request": "a desk"})
    workflow.run_to_completion()
    print(f"local engine     : {workflow.status.value} at purchase/approve")
    workflow.complete_external("purchase/approve", "approved", decision="approved-by-lead")
    local = workflow.run_to_completion()
    print(f"                   {local.outcome}, {local.value('confirmation')}\n")
    assert local.outcome == "purchased"

    system = WorkflowSystem(workers=2, registry=registry)
    system.deploy("purchase", SCRIPT)
    iid = system.instantiate("purchase", "purchase", {"request": "3 laptops"})
    system.clock.advance(50.0)

    status = system.status(iid)
    print(f"after submission : {status['status']}, "
          f"awaiting external = {status['awaiting_external']}")
    print(f"manager inbox    : {system.execution_proxy().external_tasks(iid)}")

    print("\n(crash and recover the execution node while the manager thinks)")
    system.execution_node.crash()
    system.execution_node.recover()
    system.clock.advance(20.0)
    print(f"still parked     : {system.execution_proxy().external_tasks(iid)}")

    print("\nmanager approves.")
    system.execution_proxy().complete_task(
        iid, "purchase/approve", "approved", {"decision": "approved-by-cfo"}
    )
    result = system.run_until_terminal(iid, max_time=5_000)
    print(f"\noutcome      : {result['outcome']}")
    print(f"confirmation : {result['objects']['confirmation']['value']}")
    assert result["outcome"] == "purchased"

    print("\na second request is withdrawn while it waits for the manager.")
    other = system.instantiate("purchase", "purchase", {"request": "1 chair"})
    system.clock.advance(50.0)
    system.execution_proxy().force_abort(other, "purchase/approve")  # Fig. 3 abort
    result = system.run_until_terminal(other, max_time=5_000)
    print(f"outcome      : {result['outcome']}")
    assert result["outcome"] == "withdrawn"


if __name__ == "__main__":
    main()
