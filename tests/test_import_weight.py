"""``networkx`` is a diagnostics dependency: the graph drawings, the linter's
cycle check and the interference / lock-order analyzers import it when they
run.  Importing the services, deploying, instantiating and running an instance
to its outcome must not load it — every benchmark child, CLI call and test
process pays for what ``import repro.services`` pulls in."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SERVICE_PATH = textwrap.dedent(
    """
    import sys

    import repro.services
    from repro.services import WorkflowSystem
    from repro.workloads import paper_order

    assert "networkx" not in sys.modules, "import repro.services loaded networkx"
    system = WorkflowSystem(workers=2)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
    assert system.run_until_terminal(iid)["status"] == "completed"
    assert "networkx" not in sys.modules, "the execution path loaded networkx"
    info = system.repository_proxy().inspect("order")
    assert info["tasks"][paper_order.ROOT_TASK]["tasks"] == 4
    assert "networkx" in sys.modules, "inspect no longer draws the graph?"
    """
)


def test_networkx_is_loaded_by_the_diagnostics_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SERVICE_PATH],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
