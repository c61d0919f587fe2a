"""Instruction-level definitions for the Alpha-like binary IR.

The IR models code at basic-block granularity: a block is ``size``
fixed-width instructions ending in a *terminator*.  Individual
instructions are not materialized as objects -- addresses are derived
arithmetically from block placement, which is all the paper's metrics
need (cache lines, words, sequential runs).
"""

from __future__ import annotations

import enum

#: Bytes per instruction (Alpha has fixed 32-bit instructions).
INSTRUCTION_BYTES = 4

#: Base virtual address of the kernel image.  Note that instruction
#: caches index with low address bits, so kernel and application code
#: still collide in the cache -- the interference the paper measures.
KERNEL_BASE = 0x1000000

#: Base address of the shared database buffer region (data stream).
DATA_BASE = 0x40000000


class Terminator(enum.Enum):
    """How control leaves a basic block.

    The terminator kind determines which successors a block may have and
    how the layout engine may rewrite the block:

    * ``FALLTHROUGH`` -- no branch; control continues at the single
      successor.  If the successor is not adjacent in the final layout,
      an unconditional branch must be appended (+1 instruction).
    * ``COND_BRANCH`` -- conditional branch with a *taken* successor and
      a *fallthrough* successor.  The layout engine may invert the
      polarity (swap taken/fallthrough) when the taken target is the
      adjacent block, or append an unconditional branch when neither
      successor is adjacent.
    * ``UNCOND_BRANCH`` -- unconditional branch to a single successor.
      The branch instruction is deleted when the target becomes adjacent
      (-1 instruction), which is how chaining "eliminates frequently
      executed unconditional branches".
    * ``CALL`` -- subroutine call; ``call_target`` names the callee
      procedure and the single successor is the return continuation.
      Like FALLTHROUGH, a non-adjacent continuation costs +1.
    * ``RETURN`` -- subroutine return; no successors, always a control
      break.
    * ``INDIRECT_JUMP`` -- computed jump (switch/dispatch); successors
      enumerate the possible targets, always a control break.
    """

    FALLTHROUGH = "fallthrough"
    COND_BRANCH = "cond"
    UNCOND_BRANCH = "uncond"
    CALL = "call"
    RETURN = "return"
    INDIRECT_JUMP = "indirect"


#: Terminators that end a code segment for fine-grain procedure
#: splitting ("a code segment is ended by an unconditional branch or
#: return").  Indirect jumps are unconditional transfers as well.
SEGMENT_ENDING = frozenset(
    {Terminator.UNCOND_BRANCH, Terminator.RETURN, Terminator.INDIRECT_JUMP}
)
