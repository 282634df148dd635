#!/usr/bin/env python3
"""A script used as a task's implementation (§4.4).

A compound task can "specify a task implementation": here the ``ship`` task
of an order workflow is bound, by name like any implementation, to a second
script whose compound of the same task class picks and then packs the goods.
The binding is an ordinary implementation, so the workflow gives the same
answer on the in-process engine and on the distributed system, where a
worker runs the sub-workflow inside the task.

Run:  python examples/script_implementation.py
"""

from repro import ImplementationRegistry, LocalEngine, compile_script, outcome
from repro.services import WorkflowSystem

SCRIPT = """
class Order;
class Parcel;

taskclass Ship
{
    inputs { input main { order of class Order } };
    outputs { outcome shipped { parcel of class Parcel } }
};

taskclass Fulfil
{
    inputs { input main { order of class Order } };
    outputs { outcome fulfilled { parcel of class Parcel } }
};

compoundtask fulfil of taskclass Fulfil
{
    task ship of taskclass Ship
    {
        implementation { "code" is "refShipping" };
        inputs
        {
            input main
            {
                inputobject order from { order of task fulfil if input main }
            }
        }
    };
    outputs
    {
        outcome fulfilled
        {
            outputobject parcel from { parcel of task ship if output shipped }
        }
    }
};
"""

SHIPPING = """
class Order;
class Parcel;

taskclass Pick
{
    inputs { input main { order of class Order } };
    outputs { outcome picked { parcel of class Parcel } }
};

taskclass Pack
{
    inputs { input main { parcel of class Parcel } };
    outputs { outcome packed { parcel of class Parcel } }
};

taskclass Ship
{
    inputs { input main { order of class Order } };
    outputs { outcome shipped { parcel of class Parcel } }
};

compoundtask shipping of taskclass Ship
{
    task pick of taskclass Pick
    {
        implementation { "code" is "refPick" };
        inputs
        {
            input main
            {
                inputobject order from { order of task shipping if input main }
            }
        }
    };
    task pack of taskclass Pack
    {
        implementation { "code" is "refPack" };
        inputs
        {
            input main
            {
                inputobject parcel from { parcel of task pick if output picked }
            }
        }
    };
    outputs
    {
        outcome shipped
        {
            outputobject parcel from { parcel of task pack if output packed }
        }
    }
};
"""


def main() -> None:
    registry = ImplementationRegistry()
    registry.register(
        "refPick", lambda ctx: outcome("picked", parcel=f"items({ctx.value('order')})")
    )
    registry.register(
        "refPack", lambda ctx: outcome("packed", parcel=f"box[{ctx.value('parcel')}]")
    )
    registry.register_script("refShipping", compile_script(SHIPPING))

    local = LocalEngine(registry).run(compile_script(SCRIPT), inputs={"order": "o-7"})
    print(f"local engine : {local.outcome} {local.value('parcel')}")

    system = WorkflowSystem(workers=2, registry=registry)
    system.deploy("fulfil", SCRIPT)
    iid = system.instantiate("fulfil", "fulfil", {"order": "o-7"})
    result = system.run_until_terminal(iid)
    print(f"distributed  : {result['outcome']} {result['objects']['parcel']['value']}")
    assert local.value("parcel") == result["objects"]["parcel"]["value"] == "box[items(o-7)]"


if __name__ == "__main__":
    main()
