"""Profile-free static layout prediction.

The measured-profile pipeline (Pixie counts -> Spike layouts) has an
operational bottleneck the paper's successors all flag: someone has
to *collect* the profile first.  This package closes the cold-start
gap by synthesizing an estimated :class:`~repro.profiles.Profile`
from control-flow structure alone:

* :mod:`repro.staticpred.cfg` -- dominator trees, natural loops with
  nesting depth, reachability;
* :mod:`repro.staticpred.heuristics` -- Ball-Larus-style branch
  probability heuristics, recalibrated for transaction-engine code;
* :mod:`repro.staticpred.propagate` -- exact integer flow
  propagation (flow-conserving by construction);
* :mod:`repro.staticpred.synthesize` -- the whole-binary driver plus
  measured+static hybrid blending.

Synthesized profiles plug into every consumer of measured profiles:
``SpikeOptimizer``, the scenario matrix (``profile_source`` axis),
the online controller (hybrid drift-detector seeding) and the serve
path (gated static cold-start layouts).  ``repro.check``'s STA lint
family diffs a measured profile against the static prediction.
"""

from repro.staticpred.cfg import CfgInfo, NaturalLoop
from repro.staticpred.heuristics import HEURISTIC_TABLE, branch_probabilities
from repro.staticpred.propagate import ProcFlow, apportion, propagate_units
from repro.staticpred.synthesize import (
    MAX_SCC_ROUNDS,
    PROFILE_SOURCES,
    ROOT_UNITS,
    hybrid_profile,
    synthesize_profile,
)

__all__ = [
    "CfgInfo",
    "HEURISTIC_TABLE",
    "MAX_SCC_ROUNDS",
    "NaturalLoop",
    "PROFILE_SOURCES",
    "ProcFlow",
    "ROOT_UNITS",
    "apportion",
    "branch_probabilities",
    "hybrid_profile",
    "propagate_units",
    "synthesize_profile",
]
