"""A small decision-support (DSS) workload over the TPC-B schema.

The paper contrasts OLTP with DSS: "applications such as decision
support (DSS) ... have been shown to be relatively insensitive to
memory system performance" and the authors' earlier software-trace-
cache work "was mainly on DSS which has a much better instruction
cache behavior than OLTP".  This workload lets the benchmarks measure
that contrast on the same engine: read-only aggregation queries whose
time is spent in a tight scan loop rather than OLTP's sprawling
update path.

Queries (round-robin per client):

* Q1 -- total account balance for one branch (account table scan).
* Q2 -- teller balance summary (teller table scan).
* Q3 -- spot-check: probe a sample of account keys through the index.
* Q4 -- range aggregation: sum balances over an account key range
  (B+tree leaf-chain scan).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError
from repro.db import Engine
from repro.db.txn import Transaction
from repro.workloads.tpcb import TpcbConfig, load_database


@dataclass
class DssConfig:
    """DSS workload configuration (data is the TPC-B database)."""

    tpcb: TpcbConfig = None
    seed: int = 91
    #: Keys probed by the Q3 spot-check query.
    probe_keys: int = 12

    def __post_init__(self) -> None:
        if self.tpcb is None:
            self.tpcb = TpcbConfig()


class DssQuery:
    """One read-only query as a step machine (same driver protocol as
    :class:`~repro.workloads.tpcb.TpcbTransaction`)."""

    def __init__(self, engine: Engine, kind: str, config: DssConfig,
                 rng: random.Random) -> None:
        self.engine = engine
        self.kind = kind
        self.config = config
        self.rng = rng
        self.txn: Optional[Transaction] = None
        self.result: Optional[int] = None
        self._step = 0
        self._steps = [self._begin, self._work, self._commit]
        self.woken_txns: List[int] = []

    @property
    def done(self) -> bool:
        return self._step >= len(self._steps)

    @property
    def step_index(self) -> int:
        return self._step

    def run_step(self) -> None:
        if self.done:
            raise WorkloadError("query already complete")
        self._steps[self._step]()
        self._step += 1

    def _begin(self) -> None:
        self.txn = self.engine.begin()

    def _work(self) -> None:
        if self.kind == "q1_branch_balance":
            branch = self.rng.randrange(self.config.tpcb.branches)
            rows = self.engine.scan_rows(
                self.txn, "account", lambda r: r["branch_id"] == branch
            )
            self.result = sum(r["balance"] for r in rows)
        elif self.kind == "q2_teller_summary":
            rows = self.engine.scan_rows(self.txn, "teller")
            self.result = sum(r["balance"] for r in rows)
        elif self.kind == "q4_range_sum":
            span = max(10, self.config.tpcb.accounts // 20)
            lo = self.rng.randrange(max(1, self.config.tpcb.accounts - span))
            rows = self.engine.range_rows(self.txn, "account", lo, lo + span - 1)
            self.result = sum(r["balance"] for r in rows)
        elif self.kind == "q3_spot_check":
            total = 0
            for _ in range(self.config.probe_keys):
                key = self.rng.randrange(self.config.tpcb.accounts)
                total += self.engine.get_row(self.txn, "account", key)["balance"]
            self.result = total
        else:
            raise WorkloadError(f"unknown DSS query kind {self.kind!r}")

    def _commit(self) -> None:
        self.woken_txns = self.engine.commit(self.txn)


QUERY_MIX = ("q1_branch_balance", "q2_teller_summary", "q3_spot_check",
             "q4_range_sum")


class DssClient:
    """One process's round-robin query stream."""

    def __init__(self, config: DssConfig, pid: int) -> None:
        self.config = config
        self.rng = random.Random((config.seed << 16) ^ pid)
        self._next = pid % len(QUERY_MIX)

    def next_transaction(self, engine: Engine) -> DssQuery:
        kind = QUERY_MIX[self._next]
        self._next = (self._next + 1) % len(QUERY_MIX)
        return DssQuery(engine, kind, self.config, self.rng)


class DssWorkload:
    """Pluggable workload for :class:`~repro.execution.mp.OltpSystem`."""

    def __init__(self, config: Optional[DssConfig] = None) -> None:
        self.config = config or DssConfig()

    @property
    def tpcb(self) -> TpcbConfig:
        """The TPC-B database :meth:`load` populates."""
        return self.config.tpcb

    def load(self, engine: Engine) -> None:
        load_database(engine, self.config.tpcb)

    def client(self, pid: int) -> DssClient:
        return DssClient(self.config, pid)
