"""The Binary: a whole program image of procedures with dense block ids."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import IRError
from repro.ir.block import BasicBlock
from repro.ir.instruction import Terminator
from repro.ir.procedure import Procedure

#: :attr:`BlockTable.term` code of each terminator kind (declaration order).
TERM_CODE = {term: code for code, term in enumerate(Terminator)}


@dataclass(frozen=True)
class BlockTable:
    """A sealed binary's blocks as read-only arrays indexed by block id:
    ``size`` (instructions), ``term`` (see :data:`TERM_CODE`),
    ``succ0``/``succ1`` (the fixed successors: the single successor of
    fallthrough, call and unconditional blocks, a conditional branch's
    taken then fallthrough successor; -1 where there is none) and
    ``proc`` (the owner's index in :meth:`Binary.proc_order`) and
    ``callee`` (a call block's target procedure index; -1 elsewhere).
    Two per-procedure columns are indexed by procedure index: ``names``
    (link order) and ``entry`` (each entry block id)."""

    size: np.ndarray
    term: np.ndarray
    succ0: np.ndarray
    succ1: np.ndarray
    proc: np.ndarray
    callee: np.ndarray
    names: Tuple[str, ...]
    entry: np.ndarray

    @classmethod
    def build(cls, binary: "Binary") -> "BlockTable":
        blocks = binary._blocks
        # Indirect-jump targets are not fixed successors.
        fixed = [() if b.terminator is Terminator.INDIRECT_JUMP else b.succs for b in blocks]
        proc_index = {name: i for i, name in enumerate(binary._order)}
        columns = [
            np.array([b.size for b in blocks], dtype=np.int64),
            np.array([TERM_CODE[b.terminator] for b in blocks], dtype=np.int8),
            np.array([s[0] if s else -1 for s in fixed], dtype=np.int64),
            np.array([s[1] if len(s) > 1 else -1 for s in fixed], dtype=np.int64),
            np.array([proc_index[b.proc_name] for b in blocks], dtype=np.int64),
            np.array(
                [proc_index[b.call_target] if b.terminator is Terminator.CALL else -1
                 for b in blocks],
                dtype=np.int64,
            ),
        ]
        entry = np.array(
            [binary.procedures[name].entry.bid for name in binary._order], dtype=np.int64
        )
        for column in columns + [entry]:
            column.flags.writeable = False
        return cls(*columns, tuple(binary._order), entry)

    def is_term(self, *terms: Terminator) -> np.ndarray:
        """Mask of the blocks ending in any of ``terms``."""
        return np.isin(self.term, [TERM_CODE[t] for t in terms])


class Binary:
    """A complete executable image.

    Procedures are kept in *link order* -- the order they appear in the
    original image, which defines the baseline layout.  Every block in
    the binary gets a dense global id (0..n-1) so downstream components
    (profiles, traces, address maps) can use flat numpy arrays indexed
    by block id.
    """

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self.procedures: Dict[str, Procedure] = {}
        self._order: List[str] = []
        self._blocks: List[BasicBlock] = []
        self._sealed = False

    def add_procedure(self, proc: Procedure) -> Procedure:
        """Register a procedure and assign global ids to its blocks."""
        if self._sealed:
            raise IRError(f"binary {self.name!r} is sealed")
        if proc.name in self.procedures:
            raise IRError(f"binary {self.name!r}: duplicate procedure {proc.name!r}")
        self.procedures[proc.name] = proc
        self._order.append(proc.name)
        for block in proc.blocks:
            block.bid = len(self._blocks)
            self._blocks.append(block)
        return proc

    def seal(self) -> None:
        """Finalize: resolve successor labels, validate call targets."""
        for name in self._order:
            self.procedures[name].seal()
        for block in self._blocks:
            if block.call_target is not None and block.call_target not in self.procedures:
                raise IRError(
                    f"block {block.proc_name}.{block.label}: call target "
                    f"{block.call_target!r} is not a procedure of this binary"
                )
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    @functools.cached_property
    def table(self) -> BlockTable:
        """The block table, built on first use (the binary is immutable
        once sealed).  Not pickled: an unpickled binary rebuilds it."""
        if not self._sealed:
            raise IRError(f"binary {self.name!r} has no block table before seal()")
        return BlockTable.build(self)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("table", None)
        return state

    def proc(self, name: str) -> Procedure:
        """Look a procedure up by name."""
        try:
            return self.procedures[name]
        except KeyError:
            raise IRError(f"binary {self.name!r}: no procedure {name!r}") from None

    def proc_order(self) -> List[str]:
        """Procedure names in link order."""
        return list(self._order)

    def block(self, bid: int) -> BasicBlock:
        """Look a block up by global id."""
        try:
            return self._blocks[bid]
        except IndexError:
            raise IRError(f"binary {self.name!r}: no block id {bid}") from None

    def blocks(self) -> Iterator[BasicBlock]:
        """Iterate all blocks in global-id order."""
        return iter(self._blocks)

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def num_procedures(self) -> int:
        return len(self._order)

    @property
    def static_size(self) -> int:
        """Total static instruction count (pre-layout, no fixups)."""
        return sum(b.size for b in self._blocks)

    def owner_of(self, bid: int) -> str:
        """Name of the procedure owning a block."""
        return self.block(bid).proc_name

    def entry_bid(self, proc_name: str) -> int:
        """Global id of a procedure's entry block."""
        return self.proc(proc_name).entry.bid

    def __repr__(self) -> str:
        return (
            f"Binary({self.name!r}, {self.num_procedures} procs, "
            f"{self.num_blocks} blocks, {self.static_size} instrs)"
        )
