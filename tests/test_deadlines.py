"""Tests for deadline timers and worker placement in the execution service."""

from repro.core import ScriptBuilder, from_input, from_output
from repro.engine import outcome, pending
from repro.lang import format_script
from repro.services import WorkflowSystem


def deadline_script(deadline="30"):
    """A workflow whose second input may never arrive: `gather` waits on a
    slow producer and carries a deadline + abort outcome."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Maybe").input_set("main").outcome("yes", out="Data")
    b.taskclass("Gather").input_set("main", inp="Data").outcome(
        "gathered", out="Data"
    ).abort_outcome("timedOut")
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
        "expired"
    )
    c = b.compound("wf", "Root")
    c.task("maybe", "Maybe").implementation(code="maybe").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("gather", "Gather").implementation(code="gather", deadline=deadline).input(
        "main", "inp", from_output("maybe", "yes", "out")
    ).up()
    c.output("done").object("out", from_output("gather", "gathered", "out")).up()
    c.output("expired").notify(from_output("gather", "timedOut")).up()
    c.up()
    return b.build()


def parked_gather_script(deadline=None, gather_aborts=True):
    """``maybe`` parks awaiting an external completion, so ``gather`` waits
    on its input until ``maybe`` is completed or ``gather``'s deadline, if it
    has one, aborts it."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Maybe").input_set("main").outcome("yes", out="Data")
    gather = b.taskclass("Gather").input_set("main", inp="Data").outcome("gathered", out="Data")
    if gather_aborts:
        gather.abort_outcome("timedOut")
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome("expired")
    c = b.compound("wf", "Root")
    c.task("maybe", "Maybe").implementation(code="maybe").notify(
        "main", from_input("wf", "main")
    ).up()
    properties = {"code": "gather"} if deadline is None else {"code": "gather", "deadline": deadline}
    c.task("gather", "Gather").implementation(**properties).input(
        "main", "inp", from_output("maybe", "yes", "out")
    ).up()
    c.output("done").object("out", from_output("gather", "gathered", "out")).up()
    if gather_aborts:
        c.output("expired").notify(from_output("gather", "timedOut")).up()
    c.up()
    return format_script(b.build())


def parked_gather(gather_aborts):
    system = WorkflowSystem(workers=1)
    system.registry.register("maybe", lambda ctx: pending("waiting for a human"))
    system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
    system.deploy("dl", parked_gather_script(gather_aborts=gather_aborts))
    iid = system.instantiate("dl", "wf", {})
    system.clock.advance(10.0)
    assert system.execution_proxy().external_tasks(iid) == ["wf/maybe"]
    return system, iid


class TestDeadlines:
    def test_deadline_fires_when_dependency_never_satisfied(self):
        # `maybe` terminates in an outcome that does NOT carry gather's
        # input, so gather waits forever — until its deadline aborts it.
        system = WorkflowSystem(workers=1)
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Maybe").input_set("main").outcome("yes", out="Data").outcome("no")
        b.taskclass("Gather").input_set("main", inp="Data").outcome(
            "gathered", out="Data"
        ).abort_outcome("timedOut")
        b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
            "expired"
        )
        c = b.compound("wf", "Root")
        c.task("maybe", "Maybe").implementation(code="maybe").notify(
            "main", from_input("wf", "main")
        ).up()
        c.task("gather", "Gather").implementation(code="gather", deadline="25").input(
            "main", "inp", from_output("maybe", "yes", "out")
        ).up()
        c.output("done").object("out", from_output("gather", "gathered", "out")).up()
        c.output("expired").notify(from_output("gather", "timedOut")).up()
        c.up()
        script = b.build()

        system.registry.register("maybe", lambda ctx: outcome("no"))  # no data!
        system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
        system.deploy("dl", format_script(script))
        iid = system.instantiate("dl", "wf", {})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "expired"

    def test_deadline_does_not_fire_when_inputs_arrive_in_time(self):
        script = deadline_script(deadline="500")
        system = WorkflowSystem(workers=1)
        system.registry.register("maybe", lambda ctx: outcome("yes", out="x"))
        system.registry.register(
            "gather", lambda ctx: outcome("gathered", out=f"got:{ctx.value('inp')}")
        )
        system.deploy("dl", format_script(script))
        iid = system.instantiate("dl", "wf", {})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["outcome"] == "done"
        assert result["objects"]["out"]["value"] == "got:x"

    def test_deadline_abort_survives_recovery(self):
        """The force-abort is journaled: a crash after it must replay it."""
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Maybe").input_set("main").outcome("yes", out="Data").outcome("no")
        b.taskclass("Gather").input_set("main", inp="Data").outcome(
            "gathered", out="Data"
        ).abort_outcome("timedOut")
        b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
            "expired"
        )
        c = b.compound("wf", "Root")
        c.task("maybe", "Maybe").implementation(code="maybe").notify(
            "main", from_input("wf", "main")
        ).up()
        c.task("gather", "Gather").implementation(code="gather", deadline="20").input(
            "main", "inp", from_output("maybe", "yes", "out")
        ).up()
        c.output("done").object("out", from_output("gather", "gathered", "out")).up()
        c.output("expired").notify(from_output("gather", "timedOut")).up()
        c.up()
        script = b.build()
        system = WorkflowSystem(workers=1)
        system.registry.register("maybe", lambda ctx: outcome("no"))
        system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
        system.deploy("dl", format_script(script))
        iid = system.instantiate("dl", "wf", {})
        system.clock.advance(100.0)  # deadline fires, workflow completes
        assert system.execution.status(iid)["outcome"] == "expired"
        system.execution_node.crash()
        system.execution_node.recover()
        assert system.execution.status(iid)["outcome"] == "expired"

    def test_recovered_deadline_resumes_with_remaining_time(self):
        """A coordinator crash mid-deadline must not grant the task a fresh
        full deadline: the absolute expiry is journaled when the timer is
        first armed, so recovery re-arms only the *remaining* time."""
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Maybe").input_set("main").outcome("yes", out="Data").outcome("no")
        b.taskclass("Gather").input_set("main", inp="Data").outcome(
            "gathered", out="Data"
        ).abort_outcome("timedOut")
        b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
            "expired"
        )
        c = b.compound("wf", "Root")
        c.task("maybe", "Maybe").implementation(code="maybe").notify(
            "main", from_input("wf", "main")
        ).up()
        c.task("gather", "Gather").implementation(code="gather", deadline="60").input(
            "main", "inp", from_output("maybe", "yes", "out")
        ).up()
        c.output("done").object("out", from_output("gather", "gathered", "out")).up()
        c.output("expired").notify(from_output("gather", "timedOut")).up()
        c.up()
        script = b.build()

        system = WorkflowSystem(workers=1)
        system.registry.register("maybe", lambda ctx: outcome("no"))  # gather starves
        system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
        system.deploy("dl", format_script(script))
        iid = system.instantiate("dl", "wf", {})
        system.clock.advance(30.0)  # deadline armed near t=0, half used up
        # gather starves on its input: the instance idles, deadline pending
        assert system.execution.status(iid)["status"] in ("running", "stalled")
        system.execution_node.crash()
        system.clock.advance(20.0)  # down from t=30 to t=50
        system.execution_node.recover()
        # original expiry is ~t=60-66.  A buggy re-arm would start a fresh
        # 60-unit deadline at recovery (expiring ~t=110), so by t=80 only the
        # remaining-time behaviour has fired the abort.
        system.clock.advance(30.0)
        result = system.execution.status(iid)
        assert result["status"] == "completed"
        assert result["outcome"] == "expired"


class TestWorkerPinning:
    def pinned_script(self, location):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="impl", location=location).notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        c.up()
        return b.build()

    def test_location_property_pins_worker(self):
        system = WorkflowSystem(workers=3)
        system.registry.register("impl", lambda ctx: outcome("ok", out="x"))
        system.deploy("p", format_script(self.pinned_script("worker-3")))
        iid = system.instantiate("p", "wf", {})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        assert system.workers[2].executed  # worker-3 did the work
        assert not system.workers[0].executed and not system.workers[1].executed

    def test_dead_pinned_worker_does_not_stall(self):
        system = WorkflowSystem(workers=2, dispatch_timeout=15.0, sweep_interval=5.0)
        system.registry.register("impl", lambda ctx: outcome("ok", out="x"))
        system.deploy("p", format_script(self.pinned_script("worker-1")))
        system.worker_nodes[0].crash()
        iid = system.instantiate("p", "wf", {})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["status"] == "completed"
        assert system.workers[1].executed  # re-dispatched off the pin


class TestReconfiguredDeadlines:
    def test_a_deadline_a_reconfiguration_adds_fires(self):
        system, iid = parked_gather(gather_aborts=True)
        system.execution_proxy().reconfigure(iid, parked_gather_script(deadline="20"))
        system.clock.advance(100.0)
        result = system.run_until_terminal(iid, max_time=5_000)
        assert (result["status"], result["outcome"]) == ("completed", "expired")

    def test_a_live_task_keeps_its_class_and_its_class_has_no_abort_to_take(self):
        """A reconfiguration keeps a live task's class: a deadline and an
        abort outcome added together arm nothing on a task already built
        without that outcome, so the deadline's lapse aborts nothing."""
        system, iid = parked_gather(gather_aborts=False)
        system.execution_proxy().reconfigure(iid, parked_gather_script(deadline="20"))
        system.clock.advance(100.0)  # well past the deadline
        runtime = system.execution.runtimes[iid]
        assert not runtime.armed_deadlines
        assert [entry["type"] for entry in system.execution.journal.entries(iid)] == [
            "external", "reconfig",
        ]
        system.execution_proxy().complete_task(iid, "wf/maybe", "yes", {"out": "x"})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert (result["status"], result["outcome"]) == ("completed", "done")
