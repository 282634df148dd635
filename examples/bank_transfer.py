#!/usr/bin/env python3
"""Atomic tasks backed by real transactions (the paper's §2 example).

"A task represents a unit of work to be done (e.g., an atomic transaction
that transfers a sum of money from customer account A to customer account B
by debiting A and crediting B)."

Here the workflow's `transfer` task is bound to an implementation that runs
an actual ACID transaction against a durable account store: the debit and
the credit commit together or not at all.  When the transfer cannot proceed
(insufficient funds), the transaction aborts, nothing is written, and the
task reports its *abort outcome*: exactly the mapping between
committed/aborted transactions and task outcomes the paper describes.  (The
paper lets an atomic task contain nested transactions; how a task
implementation structures its own transaction is its business, and this
one needs a single flat one.)

Run:  python examples/bank_transfer.py
"""

from repro import ImplementationRegistry, LocalEngine, abort, compile_script, outcome
from repro.txn import ObjectStore, TransactionAborted, TransactionManager

SCRIPT = """
class TransferOrder;
class Receipt;

taskclass Transfer
{
    inputs { input main { order of class TransferOrder } };
    outputs
    {
        outcome transferred { receipt of class Receipt };
        abort outcome insufficientFunds { }
    }
};

taskclass Notify
{
    inputs { input main { receipt of class Receipt } };
    outputs { outcome notified { receipt of class Receipt } }
};

taskclass Payment
{
    inputs { input main { order of class TransferOrder } };
    outputs
    {
        outcome paid { receipt of class Receipt };
        outcome bounced { }
    }
};

compoundtask payment of taskclass Payment
{
    task transfer of taskclass Transfer
    {
        implementation { "code" is "refTransfer" };
        inputs { input main { inputobject order from
            { order of task payment if input main } } }
    };
    task notify of taskclass Notify
    {
        implementation { "code" is "refNotify" };
        inputs { input main { inputobject receipt from
            { receipt of task transfer if output transferred } } }
    };
    outputs
    {
        outcome paid
        {
            outputobject receipt from { receipt of task notify if output notified }
        };
        outcome bounced
        {
            notification from { task transfer if output insufficientFunds }
        }
    }
};
"""


def build_bank():
    """A durable account store with two customers."""
    store = ObjectStore("bank")
    manager = TransactionManager("bank-tm")
    with manager.begin() as txn:
        txn.write(store, "account:A", 100.0)
        txn.write(store, "account:B", 10.0)
    return store, manager


def make_registry(store, manager):
    registry = ImplementationRegistry()

    @registry.implementation("refTransfer")
    def transfer(ctx):
        src, dst, amount = ctx.value("order")
        txn = manager.begin()
        try:
            balance = txn.read(store, f"account:{src}")
            if balance < amount:
                txn.abort(reason="insufficient funds")
                return abort("insufficientFunds")
            txn.write(store, f"account:{src}", balance - amount)
            txn.write(store, f"account:{dst}", txn.read(store, f"account:{dst}") + amount)
            txn.commit()
        except TransactionAborted:
            return abort("insufficientFunds")
        return outcome("transferred", receipt=f"{src}->{dst}:{amount}")

    registry.register(
        "refNotify", lambda ctx: outcome("notified", receipt=ctx.value("receipt"))
    )
    return registry


def balances(store):
    return store.read_committed("account:A"), store.read_committed("account:B")


def main() -> None:
    script = compile_script(SCRIPT)
    store, manager = build_bank()
    engine = LocalEngine(make_registry(store, manager))

    print(f"opening balances     : A={balances(store)[0]}, B={balances(store)[1]}")

    result = engine.run(script, inputs={"order": ("A", "B", 30.0)})
    print(f"transfer A->B 30     : {result.outcome}, receipt={result.value('receipt')}")
    print(f"balances             : A={balances(store)[0]}, B={balances(store)[1]}")

    result = engine.run(script, inputs={"order": ("A", "B", 500.0)})
    print(f"transfer A->B 500    : {result.outcome} (abort outcome, no effects)")
    print(f"balances             : A={balances(store)[0]}, B={balances(store)[1]}")

    store.crash()
    print(f"after bank crash     : A={balances(store)[0]}, B={balances(store)[1]} "
          f"(the WAL kept the committed transfer)")
    assert balances(store) == (70.0, 40.0)


if __name__ == "__main__":
    main()
