"""Concurrent (multi-threaded) workflow engine.

The paper's execution environment starts every task whose dependencies are
satisfied — tasks with no mutual dependency run *concurrently* (§3, Fig. 1:
"t2 and t3 can be performed concurrently").  :class:`ConcurrentWorkflow`
realises exactly that on a bounded thread pool: every dispatch cycle drains
*all* ready tasks from the shared :class:`~repro.engine.instance.InstanceTree`
and hands them to worker threads; each completion immediately dispatches
whatever it made ready.

The language semantics are untouched.  Scheduling decisions, input-set
selection, compound output mapping, retries, repeats and reconfiguration all
live in :class:`InstanceTree`, whose mutating entry points serialise on one
tree lock; only the task *implementations* (user code) run outside the lock,
in parallel.  Consequently a script whose dataflow determines its outputs
produces the same outcome, marks and output objects under both engines — the
event log may interleave differently, but every dependency edge is still
honoured (an event is only ever published after its producers').

``parallelism=N`` is the worker thread count (``N <= 1`` degrades to the
sequential :class:`~repro.engine.local.LocalWorkflow` loop).

Script-bound implementations (§4.4 sub-workflows) run sequentially inside
the worker thread that picked the parent task up — several sub-workflows
still run concurrently with each other — and share the parent's global step
budget.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import FrozenSet, Mapping, Optional, Set

from ..core.schema import Script
from .events import WorkflowResult, WorkflowStatus
from .instance import InstanceTree, TaskNode
from .local import LocalEngine, LocalWorkflow
from .registry import ImplementationRegistry


def enabled_pairs(tree: InstanceTree) -> Set[FrozenSet[str]]:
    """The pairs of simple tasks currently *simultaneously enabled*: both
    would be handed out by one ``drain_ready()`` cycle and therefore may
    execute concurrently.  This is the single definition of the engine's
    enablement relation, shared with the static interference analysis
    (:mod:`repro.analysis.interference`), whose ``W301`` findings must
    over-approximate every pair this function can ever return."""
    ready = tree.peek_ready()
    return {
        frozenset((a.path, b.path))
        for i, a in enumerate(ready)
        for b in ready[i + 1 :]
    }


class ConcurrentWorkflow(LocalWorkflow):
    """One running instance executing independent ready tasks in parallel.

    Drop-in replacement for :class:`LocalWorkflow`: the step-by-step control
    surface (``step``, ``reconfigure``, ``force_abort``,
    ``complete_external``) is inherited and remains sequential;
    :meth:`run_to_completion` is where the thread pool kicks in::

        wf = ConcurrentWorkflow(script, "order", registry, parallelism=4)
        wf.start({"order": "o-1"})
        result = wf.run_to_completion()
    """

    def __init__(
        self,
        script: Script,
        root_task: str,
        registry: ImplementationRegistry,
        default_retries: int = 3,
        max_repeats: int = 1000,
        max_steps: int = 100_000,
        parallelism: int = 4,
        use_plan: bool = True,
        sanitizer=None,
    ) -> None:
        super().__init__(
            script,
            root_task,
            registry,
            default_retries=default_retries,
            max_repeats=max_repeats,
            max_steps=max_steps,
            use_plan=use_plan,
            sanitizer=sanitizer,
        )
        self.parallelism = max(1, int(parallelism))
        # guards steps/inflight; Condition wraps an RLock, so budget helpers
        # may be called from a thread already holding it (dispatch)
        self._cv = threading.Condition()
        self._inflight = 0

    # -- step budget (thread-safe) ---------------------------------------------

    def budget_remaining(self) -> int:
        with self._cv:
            return self.max_steps - self.steps

    def charge_steps(self, count: int) -> None:
        with self._cv:
            self.steps += count

    # -- concurrent run loop -----------------------------------------------------

    def run_to_completion(self) -> WorkflowResult:
        if self.parallelism <= 1:
            return super().run_to_completion()
        with ThreadPoolExecutor(
            max_workers=self.parallelism, thread_name_prefix="repro-task"
        ) as pool:
            with self._cv:
                self._dispatch(pool)
                while self._inflight:
                    self._cv.wait()
        return self.result()

    def result(self) -> WorkflowResult:
        result = super().result()
        result.stats["parallelism"] = self.parallelism
        return result

    def _dispatch(self, pool: ThreadPoolExecutor) -> None:
        """Drain every ready task and submit it.  Caller holds ``_cv``."""
        if self.tree.status is not WorkflowStatus.RUNNING:
            return
        remaining = self.max_steps - self.steps
        if remaining <= 0:
            if self.tree.has_work():
                self.tree.fail(f"exceeded max_steps={self.max_steps}")
            return
        for node in self.tree.drain_ready(limit=remaining):
            self.steps += 1
            self._inflight += 1
            pool.submit(self._worker, pool, node)

    def _worker(self, pool: ThreadPoolExecutor, node: TaskNode) -> None:
        try:
            self._execute(node)
        except BaseException as exc:  # engine invariant violation, not user code
            self.tree.fail(f"engine error executing {node.path}: {exc!r}")
        finally:
            with self._cv:
                self._inflight -= 1
                try:
                    self._dispatch(pool)
                finally:
                    self._cv.notify_all()


class ConcurrentEngine(LocalEngine):
    """Convenience facade mirroring :class:`LocalEngine` with a
    ``parallelism`` knob::

        result = ConcurrentEngine(registry, parallelism=8).run(script, inputs=...)
    """

    def __init__(
        self,
        registry: Optional[ImplementationRegistry] = None,
        default_retries: int = 3,
        max_repeats: int = 1000,
        max_steps: int = 100_000,
        parallelism: int = 4,
        use_plan: bool = True,
        sanitizer=None,
    ) -> None:
        super().__init__(
            registry,
            default_retries=default_retries,
            max_repeats=max_repeats,
            max_steps=max_steps,
            use_plan=use_plan,
            sanitizer=sanitizer,
        )
        self.parallelism = parallelism

    def _build(
        self,
        script: Script,
        root_task: str,
        registry: ImplementationRegistry,
    ) -> ConcurrentWorkflow:
        return super()._build(
            script, root_task, registry, ConcurrentWorkflow, parallelism=self.parallelism
        )
