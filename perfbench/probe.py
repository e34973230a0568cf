"""Set-up probe, run in a fresh interpreter: import homcone, build the sets.

Usage: python3 perfbench/probe.py <workload> <seed>
Prints one JSON object with the import time and the set-build time in
seconds.  Parameter generation sits between the two timers and is not timed.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import homcone as hc
    t1 = time.perf_counter()
    import catalog  # the script directory is first on sys.path

    geoms, _ = catalog.generate(sys.argv[1], int(sys.argv[2]))
    t2 = time.perf_counter()
    sets = [catalog.build_set(hc, g) for g in geoms]
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "sets": len(sets)}))
