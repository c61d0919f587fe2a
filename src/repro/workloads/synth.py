"""Seeded synthetic OLTP workload: a Markov walk over engine procedures.

TPC-B and the DSS queries pin the reproduction to two fixed points of
the workload space.  The paper's conclusions, though, are claims about
*families* — OLTP's sprawling update path recovers most of its
instruction-cache misses under layout optimization, while loop-bound
DSS code is comparatively insensitive — and cross-family evidence
needs workloads whose instruction footprint and locality can be
*dialed*, not hand-written.

:class:`SyntheticWorkload` is that dial.  Each client issues
transactions whose operations are drawn from a first-order Markov
chain over the engine's entry procedures (point read, balance update,
history insert, teller scan, B+tree range scan).  The transition
matrix is the workload's *call-graph shape*: the ``oltp`` preset walks
the wide update/insert/commit path, the ``scan`` preset stays inside
the tight aggregation loops, and a custom matrix interpolates between
them.  Orthogonal knobs control:

* **procedure count** — the ``ops`` vocabulary restricts which engine
  procedures the chain may visit, shrinking or growing the dynamic
  instruction footprint;
* **hot-set skew** — accounts are drawn from a small hot set with
  probability ``hot_probability`` (and uniformly otherwise), dialing
  data locality and lock contention;
* **loop depth** — ``ops_per_txn`` operations execute per transaction
  between ``begin`` and ``commit``;
* **phase-shift schedule** — ``phases`` switches the transition
  matrix after a per-client transaction budget, reproducing the
  drift that :mod:`repro.online` adapts to.

Everything is seeded: two workloads built from equal configs produce
identical transaction streams, so scenario cells stay cacheable by
fingerprint.  The workload plugs into
:class:`~repro.execution.mp.OltpSystem` through the same
``load(engine)`` / ``client(pid)`` protocol as TPC-B and DSS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.db import Engine
from repro.db.txn import Transaction
from repro.errors import WorkloadError
from repro.workloads.tpcb import TpcbConfig, load_database

#: Every engine procedure the Markov chain may visit, in canonical
#: order: point index read, balance update, history insert, filtered
#: teller scan, B+tree leaf-chain range aggregation.
OP_KINDS = ("read", "update", "insert", "scan", "range")

#: Named transition matrices (rows sum to 1 over :data:`OP_KINDS`).
#: ``oltp`` walks the update/insert path the paper measures; ``scan``
#: stays in the DSS-style aggregation loops; ``mixed`` interpolates.
MIX_PRESETS: Dict[str, Dict[str, Dict[str, float]]] = {
    "oltp": {
        "read":   {"read": 0.25, "update": 0.45, "insert": 0.20, "scan": 0.05, "range": 0.05},
        "update": {"read": 0.30, "update": 0.30, "insert": 0.30, "scan": 0.05, "range": 0.05},
        "insert": {"read": 0.45, "update": 0.40, "insert": 0.05, "scan": 0.05, "range": 0.05},
        "scan":   {"read": 0.45, "update": 0.45, "insert": 0.10, "scan": 0.00, "range": 0.00},
        "range":  {"read": 0.45, "update": 0.45, "insert": 0.10, "scan": 0.00, "range": 0.00},
    },
    "scan": {
        "read":   {"read": 0.10, "update": 0.00, "insert": 0.00, "scan": 0.45, "range": 0.45},
        "update": {"read": 0.10, "update": 0.00, "insert": 0.00, "scan": 0.45, "range": 0.45},
        "insert": {"read": 0.10, "update": 0.00, "insert": 0.00, "scan": 0.45, "range": 0.45},
        "scan":   {"read": 0.05, "update": 0.00, "insert": 0.00, "scan": 0.45, "range": 0.50},
        "range":  {"read": 0.05, "update": 0.00, "insert": 0.00, "scan": 0.50, "range": 0.45},
    },
    "mixed": {
        "read":   {"read": 0.20, "update": 0.25, "insert": 0.10, "scan": 0.20, "range": 0.25},
        "update": {"read": 0.20, "update": 0.20, "insert": 0.20, "scan": 0.20, "range": 0.20},
        "insert": {"read": 0.25, "update": 0.25, "insert": 0.05, "scan": 0.20, "range": 0.25},
        "scan":   {"read": 0.25, "update": 0.25, "insert": 0.10, "scan": 0.15, "range": 0.25},
        "range":  {"read": 0.25, "update": 0.25, "insert": 0.10, "scan": 0.25, "range": 0.15},
    },
}


@dataclass(frozen=True)
class SynthPhase:
    """One stretch of the synthetic schedule: a mix preset plus the
    per-client transaction budget before the next phase (0 = run
    forever; only valid for the final phase)."""

    mix: str
    transactions: int = 0

    def __post_init__(self) -> None:
        if self.mix not in MIX_PRESETS:
            raise WorkloadError(
                f"unknown synthetic mix {self.mix!r}; valid mixes: "
                f"{', '.join(sorted(MIX_PRESETS))}"
            )
        if self.transactions < 0:
            raise WorkloadError(
                f"synthetic phase {self.mix!r}: negative transaction count"
            )


@dataclass
class SyntheticConfig:
    """The synthetic generator's knobs (see the module docstring)."""

    #: Schema/scale of the underlying database (shared with TPC-B).
    tpcb: Optional[TpcbConfig] = None
    seed: int = 77
    #: Loop depth: operations per transaction between begin and commit.
    ops_per_txn: int = 4
    #: Hot-set size as a fraction of the account table.
    hot_fraction: float = 0.05
    #: Probability a key access lands in the hot set (the skew dial).
    hot_probability: float = 0.75
    #: Procedure vocabulary: which engine entry points the Markov
    #: chain may visit.  Shrinking it shrinks the dynamic footprint.
    ops: Tuple[str, ...] = OP_KINDS
    #: Phase-shift schedule of mix presets.
    phases: Tuple[SynthPhase, ...] = (SynthPhase("oltp", 0),)

    def __post_init__(self) -> None:
        if self.tpcb is None:
            self.tpcb = TpcbConfig()
        if self.ops_per_txn < 1:
            raise WorkloadError(
                f"ops_per_txn must be >= 1, got {self.ops_per_txn}"
            )
        if not 0.0 < self.hot_fraction <= 1.0:
            raise WorkloadError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        if not 0.0 <= self.hot_probability <= 1.0:
            raise WorkloadError(
                f"hot_probability must be in [0, 1], got {self.hot_probability}"
            )
        if not self.ops:
            raise WorkloadError("synthetic workload needs at least one op")
        for op in self.ops:
            if op not in OP_KINDS:
                raise WorkloadError(
                    f"unknown op {op!r}; valid ops: {', '.join(OP_KINDS)}"
                )
        if not self.phases:
            raise WorkloadError("synthetic workload needs at least one phase")
        for phase in self.phases[:-1]:
            if phase.transactions == 0:
                raise WorkloadError(
                    f"synthetic phase {phase.mix!r}: only the final phase "
                    "may be unbounded (transactions=0)"
                )

    @property
    def hot_keys(self) -> int:
        """Size of the hot account set (at least one key)."""
        return max(1, int(self.tpcb.accounts * self.hot_fraction))


def _renormalized(matrix: Dict[str, Dict[str, float]],
                  ops: Tuple[str, ...]) -> Dict[str, List[Tuple[str, float]]]:
    """Restrict a preset matrix to the allowed op vocabulary.

    Each row keeps only allowed destination ops and is renormalized to
    sum to 1; a row whose allowed mass is zero degrades to the uniform
    distribution over the vocabulary so the chain never wedges.
    """
    rows: Dict[str, List[Tuple[str, float]]] = {}
    for src in ops:
        entries = [(dst, matrix[src].get(dst, 0.0)) for dst in ops]
        total = sum(weight for _, weight in entries)
        if total <= 0.0:
            entries = [(dst, 1.0) for dst in ops]
            total = float(len(ops))
        rows[src] = [(dst, weight / total) for dst, weight in entries]
    return rows


@dataclass(frozen=True)
class SynthOp:
    """One pre-drawn operation: the engine procedure plus its inputs.

    Operations are drawn when the transaction is *constructed*, so a
    step re-executed after a :class:`~repro.db.engine.LockWait` wakeup
    repeats the identical engine call and the stream stays
    deterministic.
    """

    kind: str
    key: int = 0
    span: int = 0
    delta: int = 0
    #: Point reads take an X lock up front when the same transaction
    #: later updates the key (lock-upgrade avoidance, see _draw_ops).
    for_update: bool = False


class SyntheticTransaction:
    """A pre-drawn operation sequence as a resumable step machine
    (same driver protocol as TPC-B / DSS transactions)."""

    def __init__(self, engine: Engine, config: SyntheticConfig, pid: int,
                 ops: List[SynthOp], timestamp: int) -> None:
        self.engine = engine
        self.config = config
        self.pid = pid
        self.ops = ops
        self.timestamp = timestamp
        self.txn: Optional[Transaction] = None
        self.result = 0
        self._step = 0
        self.woken_txns: List[int] = []

    @property
    def done(self) -> bool:
        """True once commit has run."""
        return self._step >= len(self.ops) + 2

    @property
    def step_index(self) -> int:
        """Index of the next step (0 = begin has not run yet)."""
        return self._step

    def run_step(self) -> None:
        """Execute the next step; raises LockWait when it parks."""
        if self.done:
            raise WorkloadError("transaction already complete")
        if self._step == 0:
            self.txn = self.engine.begin()
        elif self._step <= len(self.ops):
            self._run_op(self.ops[self._step - 1])
        else:
            self.woken_txns = self.engine.commit(self.txn)
        self._step += 1

    def _run_op(self, op: SynthOp) -> None:
        if op.kind == "read":
            row = self.engine.get_row(
                self.txn, "account", op.key, for_update=op.for_update
            )
            self.result += row["balance"]
        elif op.kind == "update":
            self.engine.update_row(
                self.txn, "account", op.key, deltas={"balance": op.delta}
            )
        elif op.kind == "insert":
            branch = op.key // self.config.tpcb.accounts_per_branch
            self.engine.insert_row(
                self.txn,
                "history",
                {
                    "account_id": op.key,
                    "teller_id": branch * self.config.tpcb.tellers_per_branch,
                    "branch_id": branch,
                    "delta": op.delta,
                    "timestamp": self.timestamp,
                },
            )
        elif op.kind == "scan":
            branch = op.key % self.config.tpcb.branches
            rows = self.engine.scan_rows(
                self.txn, "teller", lambda r: r["branch_id"] == branch
            )
            self.result += sum(r["balance"] for r in rows)
        elif op.kind == "range":
            rows = self.engine.range_rows(
                self.txn, "account", op.key, op.key + op.span - 1
            )
            self.result += sum(r["balance"] for r in rows)
        else:  # pragma: no cover - op kinds validated at config time
            raise WorkloadError(f"unknown synthetic op {op.kind!r}")


class SyntheticClient:
    """One server process's seeded Markov walk over the op vocabulary.

    The Markov state persists across transactions; the phase schedule
    advances on per-client transaction counts, exactly like
    :class:`~repro.workloads.phased.PhasedClient`.
    """

    def __init__(self, config: SyntheticConfig, pid: int) -> None:
        self.config = config
        self.pid = pid
        self._rng = random.Random((config.seed << 16) ^ pid)
        self._matrices = {
            name: _renormalized(MIX_PRESETS[name], config.ops)
            for name in {phase.mix for phase in config.phases}
        }
        self._state = config.ops[0]
        self._phase_index = 0
        self._issued_in_phase = 0
        self._clock = 0

    @property
    def phase(self) -> SynthPhase:
        """The phase the *next* transaction will be drawn from."""
        self._advance()
        return self.config.phases[self._phase_index]

    def _advance(self) -> None:
        while True:
            phase = self.config.phases[self._phase_index]
            last = self._phase_index + 1 >= len(self.config.phases)
            if last or not phase.transactions or \
                    self._issued_in_phase < phase.transactions:
                return
            self._phase_index += 1
            self._issued_in_phase = 0

    def _next_op_kind(self, matrix: Dict[str, List[Tuple[str, float]]]) -> str:
        draw = self._rng.random()
        cumulative = 0.0
        row = matrix[self._state]
        for dst, weight in row:
            cumulative += weight
            if draw < cumulative:
                self._state = dst
                return dst
        self._state = row[-1][0]
        return self._state

    def _draw_key(self) -> int:
        accounts = self.config.tpcb.accounts
        if self._rng.random() < self.config.hot_probability:
            return self._rng.randrange(self.config.hot_keys)
        return self._rng.randrange(accounts)

    def _draw_ops(self, mix: str) -> List[SynthOp]:
        matrix = self._matrices[mix]
        accounts = self.config.tpcb.accounts
        span = max(8, accounts // 32)
        ops: List[SynthOp] = []
        for _ in range(self.config.ops_per_txn):
            kind = self._next_op_kind(matrix)
            key = self._draw_key()
            if kind == "range":
                key = min(key, max(0, accounts - span))
            ops.append(
                SynthOp(
                    kind=kind,
                    key=key,
                    span=span,
                    delta=self._rng.randint(-999, 999),
                )
            )
        return self._order_locks(ops)

    @staticmethod
    def _order_locks(ops: List[SynthOp]) -> List[SynthOp]:
        """Canonical lock discipline: row locks in ascending key order,
        strongest mode at first touch.

        The engine's transaction model (like TPC-B's fixed
        account -> teller -> branch order) assumes deadlock-free
        schedules, so the generator reorders the lock-acquiring ops
        (read/update) of each transaction by key and upgrades reads of
        keys the same transaction updates to ``for_update`` — no lock
        upgrades, no cyclic waits.  Scans, range reads, and history
        inserts take no row locks and keep their drawn positions.
        """
        positions = [
            i for i, op in enumerate(ops) if op.kind in ("read", "update")
        ]
        updated = {op.key for op in ops if op.kind == "update"}
        locked = sorted(
            (ops[i] for i in positions), key=lambda op: op.key
        )
        ordered = list(ops)
        for position, op in zip(positions, locked):
            if op.kind == "read" and op.key in updated:
                op = SynthOp(
                    kind=op.kind, key=op.key, span=op.span,
                    delta=op.delta, for_update=True,
                )
            ordered[position] = op
        return ordered

    def next_transaction(self, engine: Engine) -> SyntheticTransaction:
        """Draw the next transaction's operation sequence."""
        phase = self.phase  # advances the schedule if needed
        self._issued_in_phase += 1
        self._clock += 1
        return SyntheticTransaction(
            engine, self.config, self.pid, self._draw_ops(phase.mix),
            timestamp=(self.pid << 20) + self._clock,
        )


class SyntheticWorkload:
    """Pluggable workload for :class:`~repro.execution.mp.OltpSystem`,
    first-class next to TPC-B / DSS / phased."""

    def __init__(self, config: Optional[SyntheticConfig] = None) -> None:
        self.config = config or SyntheticConfig()

    @property
    def tpcb(self) -> TpcbConfig:
        """The TPC-B database :meth:`load` populates."""
        return self.config.tpcb

    def load(self, engine: Engine) -> None:
        """Populate the shared TPC-B schema the operations run over."""
        load_database(engine, self.config.tpcb)

    def client(self, pid: int) -> SyntheticClient:
        """The per-process transaction factory."""
        return SyntheticClient(self.config, pid)


__all__ = [
    "MIX_PRESETS",
    "OP_KINDS",
    "SynthOp",
    "SynthPhase",
    "SyntheticClient",
    "SyntheticConfig",
    "SyntheticTransaction",
    "SyntheticWorkload",
]
