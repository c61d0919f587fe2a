"""TPC-B: schema, scaled database population, and the transaction.

The TPC-B transaction updates one random account's balance, the balance
of the teller submitting it and of the teller's branch, and appends a
record to the history table.  Per the spec shape: 10 tellers and
100,000 accounts per branch -- we scale accounts down (configurable)
so simulated runs stay laptop-sized, exactly as the paper scales its
own 40-branch database.

The transaction is expressed as a sequence of *steps* so the
multiprocessor scheduler can interleave transactions from different
server processes and real lock conflicts arise on the hot branch rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.db import Engine, int_col, pad_col
from repro.db.instrument import SaltCounter
from repro.db.snapshot import DatabaseSnapshot
from repro.db.txn import Transaction

TELLERS_PER_BRANCH = 10

SCHEMA = {
    "account": [int_col("account_id"), int_col("branch_id"), int_col("balance"),
                pad_col("filler", 76)],
    "teller": [int_col("teller_id"), int_col("branch_id"), int_col("balance"),
               pad_col("filler", 76)],
    "branch": [int_col("branch_id"), int_col("balance"), pad_col("filler", 84)],
    "history": [int_col("account_id"), int_col("teller_id"), int_col("branch_id"),
                int_col("delta"), int_col("timestamp"), pad_col("filler", 10)],
}

KEY_COLUMNS = {
    "account": "account_id",
    "teller": "teller_id",
    "branch": "branch_id",
    "history": "account_id",  # unused: history has no index
}


@dataclass
class TpcbConfig:
    """Scaling knobs for the TPC-B database."""

    branches: int = 40
    accounts_per_branch: int = 2500
    tellers_per_branch: int = TELLERS_PER_BRANCH
    seed: int = 1234

    @property
    def accounts(self) -> int:
        return self.branches * self.accounts_per_branch

    @property
    def tellers(self) -> int:
        return self.branches * self.tellers_per_branch


def create_schema(engine: Engine) -> None:
    """Create the four TPC-B tables (history is unindexed)."""
    for name, columns in SCHEMA.items():
        engine.create_table(
            name, columns, KEY_COLUMNS[name], indexed=(name != "history")
        )


def load_database(engine: Engine, config: TpcbConfig) -> None:
    """Populate a scaled TPC-B database with zero balances."""
    create_schema(engine)
    for branch_id in range(config.branches):
        engine.load_row("branch", {"branch_id": branch_id, "balance": 0})
    for teller_id in range(config.tellers):
        engine.load_row(
            "teller",
            {
                "teller_id": teller_id,
                "branch_id": teller_id // config.tellers_per_branch,
                "balance": 0,
            },
        )
    for account_id in range(config.accounts):
        engine.load_row(
            "account",
            {
                "account_id": account_id,
                "branch_id": account_id // config.accounts_per_branch,
                "balance": 0,
            },
        )
    engine.checkpoint()


def database_scale(config: TpcbConfig) -> Tuple[int, int, int]:
    """What :func:`load_database` reads of its config (never the seed)."""
    return (config.branches, config.accounts_per_branch, config.tellers_per_branch)


def snapshot_database(
    config: TpcbConfig, pool_capacity: int, btree_order: int
) -> DatabaseSnapshot:
    """Load a TPC-B database once, through a tracer that counts salts
    but builds no events, and snapshot it for
    ``OltpSystem(database=)``."""
    counter = SaltCounter()
    engine = Engine(
        pool_capacity=pool_capacity, btree_order=btree_order, trace=counter
    )
    load_database(engine, config)
    return DatabaseSnapshot.capture(
        engine, salt=counter.salts, scale=database_scale(config)
    )


@dataclass(frozen=True)
class TpcbRequest:
    """One generated transaction's inputs."""

    account_id: int
    teller_id: int
    branch_id: int
    delta: int
    timestamp: int


class TpcbGenerator:
    """Deterministic TPC-B input generator.

    Per the spec, the account is uniform over the whole database while
    each client (server process) is bound to a home teller/branch --
    this is what makes branch rows the contention hot spot.
    """

    def __init__(self, config: TpcbConfig, client_id: int = 0) -> None:
        self.config = config
        self.client_id = client_id
        self._rng = random.Random((config.seed << 16) ^ client_id)
        self._clock = 0
        teller = self._rng.randrange(config.tellers)
        self.home_teller = teller
        self.home_branch = teller // config.tellers_per_branch

    def next_request(self) -> TpcbRequest:
        self._clock += 1
        return TpcbRequest(
            account_id=self._rng.randrange(self.config.accounts),
            teller_id=self.home_teller,
            branch_id=self.home_branch,
            delta=self._rng.randint(-999999, 999999),
            timestamp=self._clock,
        )


class TpcbTransaction:
    """One in-flight TPC-B transaction as a resumable step machine.

    Each step performs exactly one engine operation whose first action
    is its lock acquisition, so a step interrupted by
    :class:`~repro.db.engine.LockWait` has no partial work and is simply
    re-executed when the process wakes.
    """

    def __init__(self, engine: Engine, request: TpcbRequest) -> None:
        self.engine = engine
        self.request = request
        self.txn: Optional[Transaction] = None
        self._step = 0
        self._steps: List[Callable[[], None]] = [
            self._begin,
            self._update_account,
            self._update_teller,
            self._update_branch,
            self._insert_history,
            self._commit,
        ]
        self.woken_txns: List[int] = []

    @property
    def done(self) -> bool:
        return self._step >= len(self._steps)

    @property
    def step_index(self) -> int:
        """Index of the next step to run (0 = begin has not run yet)."""
        return self._step

    def run_step(self) -> None:
        """Execute the next step.  Raises LockWait if the step parked."""
        if self.done:
            raise WorkloadError("transaction already complete")
        self._steps[self._step]()
        self._step += 1

    # -- steps ----------------------------------------------------------------

    def _begin(self) -> None:
        self.txn = self.engine.begin()

    def _update_account(self) -> None:
        self.engine.update_row(
            self.txn, "account", self.request.account_id,
            deltas={"balance": self.request.delta},
        )

    def _update_teller(self) -> None:
        self.engine.update_row(
            self.txn, "teller", self.request.teller_id,
            deltas={"balance": self.request.delta},
        )

    def _update_branch(self) -> None:
        self.engine.update_row(
            self.txn, "branch", self.request.branch_id,
            deltas={"balance": self.request.delta},
        )

    def _insert_history(self) -> None:
        self.engine.insert_row(
            self.txn,
            "history",
            {
                "account_id": self.request.account_id,
                "teller_id": self.request.teller_id,
                "branch_id": self.request.branch_id,
                "delta": self.request.delta,
                "timestamp": self.request.timestamp,
            },
        )

    def _commit(self) -> None:
        self.woken_txns = self.engine.commit(self.txn)


class TpcbWorkload:
    """The pluggable-workload adapter the system model consumes.

    ``load(engine)`` populates the database; ``client(pid)`` returns a
    per-process factory whose ``next_transaction(engine)`` yields the
    next step-machine transaction.
    """

    def __init__(self, config: Optional[TpcbConfig] = None) -> None:
        self.config = config or TpcbConfig()

    @property
    def tpcb(self) -> TpcbConfig:
        """The TPC-B database :meth:`load` populates."""
        return self.config

    def load(self, engine: Engine) -> None:
        load_database(engine, self.config)

    def client(self, pid: int) -> "TpcbClient":
        return TpcbClient(TpcbGenerator(self.config, pid))


class TpcbClient:
    """One server process's stream of TPC-B transactions."""

    def __init__(self, generator: TpcbGenerator) -> None:
        self.generator = generator

    def next_transaction(self, engine: Engine) -> TpcbTransaction:
        return TpcbTransaction(engine, self.generator.next_request())


def run_transactions(engine: Engine, config: TpcbConfig, count: int,
                     client_id: int = 0) -> int:
    """Run ``count`` transactions back to back on one client (no
    concurrency); returns the net sum of applied deltas."""
    generator = TpcbGenerator(config, client_id)
    net = 0
    for _ in range(count):
        request = generator.next_request()
        txn = TpcbTransaction(engine, request)
        while not txn.done:
            txn.run_step()
        net += request.delta
    return net
