"""Set-up probe: in a fresh process, time importing cptables, building one
workload's inputs and one warm-up proposal.  Prints the seconds, then the
mean time of two runs of the reference loop (calibrate.py) made right after,
by which the caller scales the seconds to reference speed.

    python3 perfbench/probe.py <workload> <src dir> [<input path>]
"""

import sys
from time import perf_counter

t0 = perf_counter()
name, src = sys.argv[1], sys.argv[2]
arg = sys.argv[3] if len(sys.argv) > 3 else ""
sys.path.insert(0, src)

import cptables  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

m = WORKLOADS[name].main_input(arg)
cptables.run_sis(m, cptables.SisConfig(samples=1, seed=0))
setup_s = perf_counter() - t0

from calibrate import reference_s  # noqa: E402

print(setup_s, (reference_s() + reference_s()) / 2.0)
