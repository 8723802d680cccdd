"""Helpers shared by the figure-regeneration benchmarks and the
host-time suite (``benchmarks/suite/run.py`` imports
:func:`assert_obs_quiet` from here)."""

from __future__ import annotations

import logging
import pathlib


def assert_obs_quiet() -> None:
    """Fail loudly if observability is live in this process.

    The benchmarks measure the *obs-off* fast path: tracing, structured
    logging and the flight recorder must all be disabled, or the
    recorded walls would quietly include their overhead and
    ``benchmarks/suite/compare.py`` would compare the wrong numbers.
    """
    from repro.obs.flight import flight

    if flight().enabled:
        raise RuntimeError(
            "flight recorder is enabled during a benchmark run; call "
            "repro.obs.flight.disable_flight() first"
        )
    root = logging.getLogger("repro")
    if any(getattr(h, "_repro_obs", False) for h in root.handlers):
        raise RuntimeError(
            "structured logging is configured during a benchmark run; "
            "benchmark walls must be measured log-off"
        )


def write_artifact(out_dir: pathlib.Path, name: str, text: str) -> None:
    path = out_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
