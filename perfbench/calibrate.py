"""Fixed references that tell how fast this machine is right now.

Shared hosts drift: on a 2-CPU container this loop's time flips between
about 2.2 and 4.4 ms every second or so, and the same inputs ran 30%
slower twenty minutes apart — more than any bound a metric may have.  The
task boundary timer runs the loop just before and just after every task
(a campaign cell or a bundle) in the process that runs it, and the
benchmark states each query's latency at the loop's nominal speed
(``query_ms_p50_cal``).  A second reference, a fresh interpreter that
imports a fixed set of standard-library modules, runs just before and
after every set-up, and ``setup_s`` is stated at its nominal time.  The
references are part of the benchmark, not the program, so a change to
the program never moves them.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

__all__ = ["NOMINAL_MS", "NOMINAL_START_S", "reference_start_s", "sample_ms"]

#: The loop's time on the 2-CPU container the benchmark was defined on,
#: when nothing else shared its cores; calibrated latencies are stated at
#: this speed.
NOMINAL_MS = 2.2


def sample_ms() -> float:
    """Milliseconds one run of the loop takes now."""
    start = perf_counter()
    table = {}
    words = []
    total = 0
    for i in range(5_000):
        key = ("k", i % 251)
        table[key] = table.get(key, 0) + 1
        words.append(str(i))
        if len(words) > 64:
            total += len(" ".join(words))
            words.clear()
    return 1e3 * (perf_counter() - start)


#: What the reference start imports: standard-library modules only, so
#: that a change to the program never moves it.
REFERENCE_IMPORTS = (
    "import argparse, asyncio, concurrent.futures, dataclasses, decimal, "
    "email.mime.multipart, fractions, http.server, json, "
    "multiprocessing.pool, sqlite3, statistics, unittest, xml.dom.minidom"
)

#: The reference start's time on the 2-CPU container the benchmark was
#: defined on, when nothing else shared its cores; set-up times are stated
#: at this speed.
NOMINAL_START_S = 0.11


def reference_start_s() -> float:
    """Seconds a fresh interpreter takes to start and import
    :data:`REFERENCE_IMPORTS` now.

    Set-up is mostly a fresh interpreter importing the program, which
    drifts with the host less than :func:`sample_ms` does (1.3× against
    1.75× between its slow and fast phases), so set-up is scaled by a
    start of the same kind: on the host above its time ran 0.17 s in one
    phase and 0.29 s in another, while its ratio to this start stayed
    within 2%.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS],
                   env={"PATH": "/usr/bin:/bin"}, check=True)
    return perf_counter() - start
