"""The perf ledger: this repository's standing benchmark.

Two clocks are kept apart throughout. *Simulated* time is what the
modelled Calvin cluster takes; it is exact and repeats for a seed.
*Host* time is what the simulator itself takes on this machine; it is
the thing performance work on this repository moves. ``README.md`` in
this directory defines every workload, metric, bound and layer.

The ledger measures the system from outside, through its public API
only, and owns its workload definitions. Run it from the repository
root::

    python3 -m ledger run                      # all five workloads
    python3 -m ledger run --workload tpcc-4p   # one workload, one process
    python3 -m ledger compare A.json B.json
"""

import os
import sys
from pathlib import Path

# The pure-Python path is the reference the ledger measures. repro.accel
# reads the variable once at import, so it is pinned before any import
# of repro can happen.
os.environ["REPRO_ACCEL"] = "0"

_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
