#!/usr/bin/env python3
"""§4.2's timeout pattern, built in Python with ``ScriptBuilder``.

A task class may declare "a set of 'normal' inputs and a set for an
exceptional input such as a timer enabling a task to wait for normal inputs
with a timeout".  Here ``process`` starts from its normal set when ``fetch``
delivers, or from its exceptional set when the built-in timer task (code
``system.timer``, run by the execution service itself) fires first.
The tasks show the rest of Fig. 3's outputs: ``fetch`` re-executes
through a repeat outcome while the feed is not ready and gives up through an
abort outcome when the feed is gone (an atomic task), and ``process``
releases a mark as soon as it has accepted its input.

Run:  python examples/timeout_pattern.py
"""

from repro.core import ScriptBuilder, from_input, from_output, from_task
from repro.engine import abort, outcome, repeat
from repro.lang import format_script
from repro.services import WorkflowSystem


def timeout_script():
    b = ScriptBuilder()
    b.object_class("Data")
    (
        b.taskclass("Fetch")
        .input_set("main")
        .repeat_outcome("notReady")
        .outcome("fetched", out="Data")
        .abort_outcome("feedGone")
    )
    b.taskclass("Timer").input_set("main").outcome("fired")
    (
        b.taskclass("Process")
        .input_set("normal", inp="Data")
        .input_set("exceptional")
        .mark("accepted")
        .outcome("processed", out="Data")
        .outcome("timedOut")
    )
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome("gaveUp")
    c = b.compound("wf", "Root")
    c.task("fetch", "Fetch").implementation(code="fetch").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("timer", "Timer").implementation(code="system.timer", delay="60").notify(
        "main", from_input("wf", "main")
    ).up()
    process = c.task("process", "Process").implementation(code="process")
    process.input("normal", "inp", from_task("fetch", "out"))
    process.notify("exceptional", from_output("timer", "fired"))
    process.up()
    c.output("done").object("out", from_output("process", "processed", "out")).up()
    c.output("gaveUp").notify(from_output("process", "timedOut")).up()
    c.up()
    return b.build()


def run(feed):
    """One instance against ``feed``: how many attempts find it not ready,
    then what it answers (a value, or None: gone).  Returns the instance's
    result and the number of fetch attempts."""
    attempts = []

    def fetch(ctx):
        attempts.append(ctx.repeats)
        if ctx.repeats < feed["not_ready"]:
            return repeat("notReady")
        if feed["value"] is None:
            return abort("feedGone")
        return outcome("fetched", out=feed["value"])

    def process(ctx):
        if ctx.input_set == "exceptional":
            return outcome("timedOut")
        ctx.mark("accepted")
        return outcome("processed", out=f"p({ctx.value('inp')})")

    system = WorkflowSystem(workers=1)
    system.registry.register("fetch", fetch)
    system.registry.register("process", process)
    system.deploy("wf", format_script(timeout_script()))
    iid = system.instantiate("wf", "wf", {})
    result = system.run_until_terminal(iid)
    return result, len(attempts)


def main() -> None:
    result, attempts = run({"not_ready": 2, "value": "reading"})
    print(f"feed answers : {result['outcome']} {result['objects']['out']['value']} "
          f"after {attempts} attempts")
    assert result["outcome"] == "done"

    result, attempts = run({"not_ready": 1, "value": None})
    print(f"feed is gone : {result['outcome']} after {attempts} attempts "
          f"(the timer's exceptional set)")
    assert result["outcome"] == "gaveUp"


if __name__ == "__main__":
    main()
