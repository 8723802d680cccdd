"""Compare two sets of run outputs: ``compare.py A_DIR B_DIR``.

Each directory holds the result files ``run.py`` wrote (any number of
runs per workload, traced and untraced).  Prints one row per (workload,
end-to-end metric) with both medians, quartiles, run counts and the
bound from ``BENCHMARK.json``, and checks that

* B's median is not worse than A's by more than the metric's bound --
  reported as *unresolved*, not as unchanged, when either set's own
  spread (quartile distance over median) exceeds the bound, unless every
  run of B reads better than every run of A;
* ``sim_seconds`` and every count/byte/cycle layer metric a result file
  lists as exact reads the same in every run of both sets (per seed for
  the ones it lists as seed-dependent): simulated statistics of a
  deterministic simulator compare exactly;
* no run failed an operation or a guard.

Exits non-zero on any disagreement.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def load(directory: str) -> dict:
    """``{(workload, traced): [result documents]}`` of one directory."""
    runs = defaultdict(list)
    for path in sorted(pathlib.Path(directory).glob("*_seed*_trace[01]*.json")):
        doc = json.loads(path.read_text())
        doc["path"] = str(path)
        runs[doc["workload"], bool(doc["trace"])].append(doc)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, first quartile, third quartile, spread)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def compare_end_to_end(a_runs, b_runs) -> int:
    bad = 0
    print(f"{'workload':12s} {'metric':13s} {'A median [q1, q3] n':>40s} "
          f"{'B median [q1, q3] n':>40s} {'worse':>8s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        a_docs = a_runs.get((workload, False), [])
        b_docs = b_runs.get((workload, False), [])
        if not a_docs or not b_docs:
            continue
        for metric in BENCHMARK["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            a = [d["metrics"][name]["value"] for d in a_docs]
            b = [d["metrics"][name]["value"] for d in b_docs]
            a_med, a_q1, a_q3, a_spread = summary(a)
            b_med, b_q1, b_q3, b_spread = summary(b)
            worse = worse_by(a_med, b_med, better)
            all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
            if max(a_spread, b_spread) > bound and not all_better:
                verdict = (f"UNRESOLVED (spread A {a_spread:.1%}, "
                           f"B {b_spread:.1%} > bound)")
                bad += 1
            elif worse > bound:
                verdict = "WORSE"
                bad += 1
            else:
                verdict = "ok"
            print(f"{workload:12s} {name:13s} "
                  f"{a_med:14.6g} [{a_q1:.6g}, {a_q3:.6g}] {len(a):2d} "
                  f"{b_med:14.6g} [{b_q1:.6g}, {b_q3:.6g}] {len(b):2d} "
                  f"{worse:+8.1%} {bound:6.0%}  {verdict}")
    return bad


def compare_exact(a_runs, b_runs) -> int:
    """Exact metrics over the traced runs of both sets, and
    ``sim_seconds`` over every run."""
    bad = 0
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        docs = [d for traced in (False, True)
                for runs in (a_runs, b_runs)
                for d in runs.get((workload, traced), [])]
        values = defaultdict(set)
        for doc in docs:
            values["sim_seconds", None].add(doc["sim_seconds"])
            for name in doc["exact"]:
                seed = doc["host"]["seed"] if name in doc["seed_dependent"] else None
                values[name, seed].add(doc["metrics"][name]["value"])
        differing = {key: vals for key, vals in values.items() if len(vals) > 1}
        for (name, seed), vals in sorted(differing.items(), key=str):
            where = f" (seed {seed})" if seed is not None else ""
            print(f"{workload}: {name}{where} is not exact: {sorted(vals)}")
        bad += len(differing)
        if docs:
            print(f"{workload}: {len(values) - len(differing)} exact values "
                  f"agree over {len(docs)} runs")
    return bad


def failed_runs(*sets) -> int:
    bad = 0
    for runs in sets:
        for docs in runs.values():
            for doc in docs:
                if not doc["correct"]:
                    print(f"{doc['path']}: failed {doc['failed']} of "
                          f"{doc['attempted']}; {doc['problems']}")
                    bad += 1
    return bad


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    bad = failed_runs(a_runs, b_runs)
    bad += compare_end_to_end(a_runs, b_runs)
    bad += compare_exact(a_runs, b_runs)
    print("DISAGREE" if bad else "AGREE")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
