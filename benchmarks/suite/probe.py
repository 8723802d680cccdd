"""One set-up probe: a fresh interpreter running three operations.

``run.py`` starts this file, notes the time just before, and reads back
when the first operation completed and how long each one took; set-up
time is (exec -> first operation complete) minus the median of the
second and third operation.  It covers ``import repro``, the lazy ISA
stream compile and pipeline memo, and for ``serve_pool`` the pool fork,
shared-memory creation and ``ServeApp.start``.  The smoke catalogue is
used: one-off set-up cost does not depend on the number of J/K planes.
"""

import json
import sys
import time

import run  # puts src/ on the path

import workloads


def main(name: str, seed: int) -> None:
    workload = workloads.WORKLOADS[name]
    catalogue = workload.catalogue(seed, smoke=True)
    with workload.session(catalogue) as session:
        idle = [[] for _ in range(session.clients - 1)]
        first = session.run(0)
        first_done = time.monotonic()
        rest = run.run_ops(session, [[0] * (run.SMOKE_OPS - 1)] + idle)
    errors = [r.error for r in [first] + rest if r.error]
    if errors:
        sys.exit(f"probe operation failed: {errors[0]}")
    print(json.dumps({"first_done": first_done,
                      "walls": [first.wall] + [r.wall for r in rest]}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
