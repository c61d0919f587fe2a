"""The multiprocessor OLTP system model.

Runs N server processes (8 per CPU by default, as in the paper) against
the shared mini-DBMS, interleaving their execution at engine-operation
granularity.  Each CPU gets its own instruction stream; kernel events
(syscalls from the engine, quantum-expiry context switches and clock
ticks from this scheduler) are woven in where they occur.

Lock conflicts are real: a process whose step parks on a lock queue is
descheduled and retried when the holding transaction commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.db import CallTrace, Engine, LockWait
from repro.db.instrument import CallEvent
from repro.db.pages import PAGE_SIZE
from repro.errors import DeadlockError
from repro.execution.interpreter import CfgWalker
from repro.execution.trace import CpuTrace, SystemTrace
from repro.ir import DATA_BASE
from repro.progen.builder import CompiledProgram
from repro.workloads.tpcb import TpcbConfig, TpcbWorkload

#: Base of per-process private memory (stack / sort heaps / cursors).
PRIVATE_BASE = 0x80000000
PRIVATE_STRIDE = 1 << 22
#: Log buffer region.
LOG_BASE = 0x70000000


@dataclass
class SystemConfig:
    """Multiprocessor model parameters."""

    cpus: int = 4
    processes_per_cpu: int = 8
    #: Instructions before an involuntary context switch.
    quantum: int = 30_000
    #: Instructions between clock ticks, per CPU.
    timer_interval: int = 200_000
    seed: int = 5

    @property
    def processes(self) -> int:
        return self.cpus * self.processes_per_cpu


class _Process:
    def __init__(self, pid: int, cpu: int, client) -> None:
        self.pid = pid
        self.cpu = cpu
        self.client = client
        self.txn = None
        self.blocked = False
        self.committed = 0


class _CpuState:
    def __init__(self, index: int, processes: List[_Process]) -> None:
        self.index = index
        self.processes = processes
        self.current = 0
        self.quantum_used = 0
        self.since_timer = 0
        self.block_chunks: List[np.ndarray] = []
        self.pid_chunks: List[np.ndarray] = []
        self.length = 0
        self.data_addr: List[int] = []
        self.data_pos: List[int] = []


class OltpSystem:
    """Builds and drives the full simulated system."""

    def __init__(
        self,
        app: CompiledProgram,
        kernel: CompiledProgram,
        tpcb_config: Optional[TpcbConfig] = None,
        system_config: Optional[SystemConfig] = None,
        pool_capacity: int = 2048,
        btree_order: int = 64,
        workload=None,
    ) -> None:
        """``workload`` is any object with ``load(engine)`` and
        ``client(pid)`` (returning per-process transaction factories);
        defaults to TPC-B over ``tpcb_config``."""
        self.app = app
        self.kernel = kernel
        self.tpcb_config = tpcb_config or TpcbConfig()
        self.workload = workload or TpcbWorkload(self.tpcb_config)
        self.config = system_config or SystemConfig()
        self.walker = CfgWalker(app, kernel)
        self.trace = CallTrace()
        self.engine = Engine(
            pool_capacity=pool_capacity, btree_order=btree_order, trace=self.trace
        )
        self.workload.load(self.engine)
        self.trace.take()  # discard load-phase events
        self._rng = random.Random(self.config.seed)
        self._sizes = np.array(
            [b.size for b in app.binary.blocks()]
            + [b.size for b in kernel.binary.blocks()],
            dtype=np.int64,
        )
        self._txn_to_pid: Dict[int, int] = {}
        self._data_salt = 0
        self.engine.pool.on_access = self._on_page_access
        self._processes = [
            _Process(
                pid,
                pid // self.config.processes_per_cpu,
                self.workload.client(pid),
            )
            for pid in range(self.config.processes)
        ]
        self._cpus = [
            _CpuState(i, [p for p in self._processes if p.cpu == i])
            for i in range(self.config.cpus)
        ]
        self._active_cpu: Optional[_CpuState] = None
        self._pending_commits = 0

    # -- data-stream hooks ---------------------------------------------------

    def _on_page_access(self, page_id: int, hit: bool) -> None:
        cpu = self._active_cpu
        if cpu is None:
            return
        self._data_salt += 1
        offset = (self._data_salt * 2654435761) % (PAGE_SIZE // 64) * 64
        cpu.data_addr.append(DATA_BASE + page_id * PAGE_SIZE + offset)
        cpu.data_pos.append(cpu.length)

    def _private_accesses(self, cpu: _CpuState, pid: int, count: int = 3) -> None:
        base = PRIVATE_BASE + pid * PRIVATE_STRIDE
        for _ in range(count):
            self._data_salt += 1
            offset = (self._data_salt * 40503) % (64 * 1024) // 64 * 64
            cpu.data_addr.append(base + offset)
            cpu.data_pos.append(cpu.length)

    def _log_access(self, cpu: _CpuState) -> None:
        self._data_salt += 1
        offset = (self._data_salt * 64) % (1 << 20)
        cpu.data_addr.append(LOG_BASE + offset)
        cpu.data_pos.append(cpu.length)

    # -- execution ------------------------------------------------------------

    def run(self, transactions: int, warmup: int = 0) -> SystemTrace:
        """Run the system until ``transactions`` commits are traced.

        ``warmup`` transactions are executed first and their trace
        discarded (caches and the statement cache stay warm), matching
        the paper's measurement methodology.
        """
        if warmup:
            self._run_until(warmup)
            for cpu in self._cpus:
                cpu.block_chunks.clear()
                cpu.pid_chunks.clear()
                cpu.length = 0
                cpu.data_addr.clear()
                cpu.data_pos.clear()
        committed = self._run_until(transactions)
        cpus = [
            CpuTrace(
                blocks=_concat(cpu.block_chunks),
                pids=_concat(cpu.pid_chunks, dtype=np.int16),
            )
            for cpu in self._cpus
        ]
        return SystemTrace(
            cpus=cpus,
            data_addresses=[
                np.asarray(cpu.data_addr, dtype=np.int64) for cpu in self._cpus
            ],
            data_positions=[
                np.asarray(cpu.data_pos, dtype=np.int64) for cpu in self._cpus
            ],
            kernel_offset=self.walker.kernel_offset,
            transactions=committed,
        )

    def _run_until(self, target: int) -> int:
        committed = 0
        idle_rounds = 0
        while committed < target:
            progressed = False
            for cpu in self._cpus:
                if committed >= target:
                    break
                if self._step_cpu(cpu):
                    progressed = True
                    committed += self._collect_commits(cpu)
            if not progressed:
                idle_rounds += 1
                if idle_rounds > self.config.processes + 4:
                    raise SimulationError(
                        "system wedged: every process is blocked"
                    )
            else:
                idle_rounds = 0
        return committed

    def _collect_commits(self, cpu: _CpuState) -> int:
        count = self._pending_commits
        self._pending_commits = 0
        return count

    def _step_cpu(self, cpu: _CpuState) -> bool:
        process = self._pick_runnable(cpu)
        if process is None:
            return False
        self._active_cpu = cpu
        try:
            self._step_process(cpu, process)
        finally:
            self._active_cpu = None
        return True

    def _pick_runnable(self, cpu: _CpuState) -> Optional[_Process]:
        n = len(cpu.processes)
        for offset in range(n):
            idx = (cpu.current + offset) % n
            process = cpu.processes[idx]
            if not process.blocked:
                if offset:
                    cpu.current = idx
                    cpu.quantum_used = 0
                return process
        return None

    def _step_process(self, cpu: _CpuState, process: _Process) -> None:
        if process.txn is None or process.txn.done:
            process.txn = process.client.next_transaction(self.engine)
        step_was_begin = process.txn.step_index == 0
        switched = False
        try:
            process.txn.run_step()
        except LockWait:
            process.blocked = True
            switched = True
        except DeadlockError:
            woken = self.engine.abort(process.txn.txn)
            for txn_id in woken:
                pid = self._txn_to_pid.get(txn_id)
                if pid is not None:
                    self._processes[pid].blocked = False
            self._txn_to_pid.pop(process.txn.txn.txn_id, None)
            process.txn = None
        events = self.trace.take()
        emitted = self._emit(cpu, process.pid, events)
        if emitted:
            self._private_accesses(cpu, process.pid)
        if step_was_begin and process.txn is not None and process.txn.txn is not None:
            self._txn_to_pid[process.txn.txn.txn_id] = process.pid
        if process.txn is not None and process.txn.done:
            self._pending_commits += 1
            process.committed += 1
            self._log_access(cpu)
            for txn_id in process.txn.woken_txns:
                pid = self._txn_to_pid.get(txn_id)
                if pid is not None:
                    self._processes[pid].blocked = False
            self._txn_to_pid.pop(process.txn.txn.txn_id, None)
            process.txn = None
            switched = True  # wait for the log write: yield the CPU
        self._tick(cpu, switched)

    def _emit(self, cpu: _CpuState, pid: int, events: List[CallEvent]) -> int:
        out: List[int] = []
        for event in events:
            self.walker.walk_event(event, out)
        if not out:
            return 0
        blocks = np.asarray(out, dtype=np.int64)
        cpu.block_chunks.append(blocks)
        cpu.pid_chunks.append(np.full(len(blocks), pid, dtype=np.int16))
        cpu.length += len(blocks)
        instrs = int(self._sizes[blocks].sum())
        cpu.quantum_used += instrs
        cpu.since_timer += instrs
        return instrs

    def _tick(self, cpu: _CpuState, want_switch: bool) -> None:
        while cpu.since_timer >= self.config.timer_interval:
            cpu.since_timer -= self.config.timer_interval
            self._emit_kernel(cpu, "k.timer")
        if want_switch or cpu.quantum_used >= self.config.quantum:
            runnable = [p for p in cpu.processes if not p.blocked]
            if len(runnable) > 1:
                if cpu.quantum_used >= self.config.quantum and not want_switch:
                    self._emit_kernel(cpu, "k.switch")
                cpu.current = (cpu.current + 1) % len(cpu.processes)
            cpu.quantum_used = 0

    def _emit_kernel(self, cpu: _CpuState, name: str) -> None:
        event = CallEvent(name, {"salt": self._rng.randrange(1 << 31)})
        pid = cpu.processes[cpu.current].pid
        out: List[int] = []
        self.walker.walk_event(event, out)
        blocks = np.asarray(out, dtype=np.int64)
        cpu.block_chunks.append(blocks)
        cpu.pid_chunks.append(np.full(len(blocks), pid, dtype=np.int16))
        cpu.length += len(blocks)
        cpu.since_timer += int(self._sizes[blocks].sum())


def _concat(chunks: List[np.ndarray], dtype=np.int64) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(chunks).astype(dtype)
