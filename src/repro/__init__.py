"""repro: reproduction of "Code Layout Optimizations for Transaction
Processing Workloads" (Ramirez et al., ISCA 2001).

Public entry points:

* :mod:`repro.ir` -- the binary IR and layout/address machinery.
* :mod:`repro.layout` -- the Spike-style optimizer (the paper's
  contribution).
* :mod:`repro.profiles` -- Pixie/DCPI-style profilers.
* :mod:`repro.db`, :mod:`repro.workloads` -- the mini-DBMS and TPC-B.
* :mod:`repro.progen`, :mod:`repro.osmodel` -- synthetic binaries.
* :mod:`repro.execution` -- the CFG interpreter and 4-CPU system model.
* :mod:`repro.cache` -- the cache geometry; :mod:`repro.sim`,
  :mod:`repro.timing` -- memory-system and timing simulators.
* :mod:`repro.pipeline` -- the stage graph and the one process fan-out.
* :mod:`repro.harness` -- the experiment pipeline behind the
  per-figure benchmarks.
"""

__version__ = "1.0.0"
