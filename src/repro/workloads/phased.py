"""Phase-shifting workload: the executed path mix changes mid-run.

The paper's Section 5 interference study trains the layout on one
request mix and measures on another; this workload reproduces that
situation *within a single run*.  Every client (server process) works
through a schedule of phases -- e.g. TPC-B updates for its first N
transactions, then read-only DSS aggregation queries -- so the hot
path mix of the system shifts while it serves traffic.  The online
adaptation subsystem (:mod:`repro.online`) uses it to demonstrate
static-layout decay and adaptive recovery.

Because clients advance through their schedules at roughly the same
rate (the scheduler round-robins processes), the shift shows up in the
system trace as a fairly sharp change in the executed block mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import WorkloadError
from repro.db import Engine
from repro.workloads.dss import DssClient, DssConfig
from repro.workloads.tpcb import (
    TpcbClient,
    TpcbConfig,
    TpcbGenerator,
    load_database,
)

#: Workload mixes a phase can run.
PHASE_MIXES = ("tpcb", "dss")


@dataclass(frozen=True)
class Phase:
    """One stretch of a client's schedule.

    ``transactions`` is the number of transactions each client issues
    in this phase before advancing; 0 means "run forever" and is only
    valid for the final phase.
    """

    mix: str
    transactions: int = 0

    def __post_init__(self) -> None:
        if self.mix not in PHASE_MIXES:
            raise WorkloadError(
                f"unknown phase mix {self.mix!r}; valid mixes: "
                f"{', '.join(PHASE_MIXES)}"
            )
        if self.transactions < 0:
            raise WorkloadError(
                f"phase {self.mix!r}: negative transaction count"
            )


@dataclass
class PhasedConfig:
    """Schedule plus the underlying TPC-B / DSS configurations."""

    tpcb: Optional[TpcbConfig] = None
    dss: Optional[DssConfig] = None
    phases: Tuple[Phase, ...] = (Phase("tpcb", 6), Phase("dss", 0))

    def __post_init__(self) -> None:
        if self.tpcb is None:
            self.tpcb = TpcbConfig()
        if self.dss is None:
            self.dss = DssConfig(tpcb=self.tpcb)
        if not self.phases:
            raise WorkloadError("phased workload needs at least one phase")
        for phase in self.phases[:-1]:
            if phase.transactions == 0:
                raise WorkloadError(
                    f"phase {phase.mix!r}: only the final phase may be "
                    "unbounded (transactions=0)"
                )


class PhasedClient:
    """One process's transaction stream walking the phase schedule."""

    def __init__(self, config: PhasedConfig, pid: int) -> None:
        self.config = config
        self.pid = pid
        self._tpcb = TpcbClient(TpcbGenerator(config.tpcb, pid))
        self._dss = DssClient(config.dss, pid)
        self._phase_index = 0
        self._issued_in_phase = 0

    @property
    def phase(self) -> Phase:
        """The phase the *next* transaction will come from."""
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

    def next_transaction(self, engine: Engine):
        phase = self.phase  # advances the schedule if needed
        self._issued_in_phase += 1
        client = self._tpcb if phase.mix == "tpcb" else self._dss
        return client.next_transaction(engine)


class PhasedWorkload:
    """Pluggable workload for :class:`~repro.execution.mp.OltpSystem`."""

    def __init__(self, config: Optional[PhasedConfig] = None) -> None:
        self.config = config or PhasedConfig()

    @property
    def tpcb(self) -> TpcbConfig:
        """The TPC-B database :meth:`load` populates."""
        return self.config.tpcb

    def load(self, engine: Engine) -> None:
        load_database(engine, self.config.tpcb)

    def client(self, pid: int) -> PhasedClient:
        return PhasedClient(self.config, pid)
