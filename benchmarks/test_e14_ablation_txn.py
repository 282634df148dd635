"""E14 — ablation: transactional dependency propagation.

The paper's execution service records coordination state in persistent atomic
objects updated under transactions.  This experiment removes exactly that
piece — the execution store's log never forces, so nothing the unchanged
service commits is durable — and shows:

* without failures, both variants complete — durability costs only overhead
  (journal transactions, WAL forces);
* with an execution-node crash, the durable variant recovers and completes
  while the ablated one loses the instance — the design choice earns its
  cost.
"""

from repro.net import FaultPlan
from repro.services import WorkflowSystem
from repro.txn.wal import WriteAheadLog
from repro.workloads import paper_order

from .conftest import report


class NeverForcingLog(WriteAheadLog):
    """The ablation: a log whose force is a no-op."""

    def force(self) -> int:
        return 0


def run_variant(durable: bool, crash: bool, seed: int = 0):
    system = WorkflowSystem(
        workers=2,
        seed=seed,
        dispatch_timeout=20.0,
        sweep_interval=5.0,
    )
    if not durable:
        # swap in a log that never forces: a crash of the execution node
        # takes the store's unforced records with it
        system.execution_store.wal = NeverForcingLog()
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o"})
    if crash:
        FaultPlan(system.clock).crash_at(
            system.execution_node, when=2.0, down_for=30.0
        ).arm()
    result = system.run_until_terminal(iid, max_time=20_000)
    # every durable write of the service is one self-committing WAL record
    journal_writes = system.execution_store.wal.durable_length
    return result, journal_writes, system.clock.now


def test_e14_overhead_without_failures(benchmark):
    durable_result, durable_txns, durable_time = run_variant(True, crash=False)
    volatile_result, volatile_txns, volatile_time = run_variant(False, crash=False)
    assert durable_result["status"] == "completed"
    assert volatile_result["status"] == "completed"
    report(
        "E14: durability overhead (no failures)",
        ["variant", "status", "journal commits", "virtual time"],
        [
            ("durable (paper)", durable_result["status"], durable_txns, durable_time),
            ("volatile (ablation)", volatile_result["status"], volatile_txns, volatile_time),
        ],
    )
    # the ablation commits nothing to the durable journal
    assert volatile_txns == 0 < durable_txns

    benchmark.pedantic(lambda: run_variant(True, crash=False), rounds=3, iterations=1)


def test_e14_crash_separates_the_variants(benchmark):
    durable_result, *_ = run_variant(True, crash=True)
    volatile_result, *_ = run_variant(False, crash=True)
    report(
        "E14: execution-node crash mid-run",
        ["variant", "status", "outcome"],
        [
            ("durable (paper)", durable_result["status"], durable_result["outcome"]),
            ("volatile (ablation)", volatile_result["status"], volatile_result["outcome"]),
        ],
    )
    assert durable_result["status"] == "completed"
    assert volatile_result["status"] == "lost"

    benchmark.pedantic(lambda: run_variant(True, crash=True), rounds=2, iterations=1)


def test_e14_store_level_wal_costs(benchmark):
    """Micro-view of the same trade-off at the substrate: committed updates
    survive ObjectStore.crash() exactly when the WAL forced them."""
    from repro.txn import ObjectStore, TransactionManager

    def committed_survives():
        store = ObjectStore("s")
        tm = TransactionManager("tm")
        for i in range(50):
            with tm.begin() as txn:
                txn.write(store, f"k{i}", i)
        store.crash()
        return sum(1 for i in range(50) if store.get_committed(f"k{i}") == i)

    survived = benchmark(committed_survives)
    assert survived == 50
