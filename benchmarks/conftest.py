"""Shared helpers for the paper-experiment benchmarks.

Every benchmark regenerates one experiment (E1–E13, E16, E19 and the
A1–A3 ablations): it sweeps the experiment's parameters, checks the
paper's qualitative claim as hard assertions, prints the paper-style
table, and persists it under ``benchmarks/results/`` so the run's
evidence survives pytest's output capture.

Besides the human-readable table, every experiment emits one **uniform
JSON record** (``results/BENCH_<experiment>.json``, schema ``bench.v1``)
with the protocol name, party count, round count, wall time and execution
backend.  Runtime performance is measured by ``benchmarks/perf/``
(``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, Optional, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Wall-clock seconds of the most recent :func:`once` sweep; used as the
#: default ``wall_time_s`` of the JSON record emitted right after it.
_LAST_ONCE_S: Optional[float] = None


def once(benchmark, fn):
    """Run a sweep exactly once under the benchmark timer, return result.

    Table-producing experiments are too slow (and too deterministic) to
    repeat thousands of times; a single timed pass records their cost in
    the benchmark report while ``--benchmark-only`` still selects them.
    """
    global _LAST_ONCE_S
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    _LAST_ONCE_S = time.perf_counter() - start
    return result


#: Experiments whose claims depend on where worker crypto caches came
#: from; their records must say so explicitly (E19: online pool spending
#: vs per-call sampling).
MATERIAL_SOURCE_REQUIRED = ("E19",)

#: Experiments that must also state whether trials spent the
#: preprocessed pools (the offline/online mode axis).
ONLINE_REQUIRED = ("E19",)


def bench_record(
    experiment: str,
    protocol: str,
    n: Optional[int] = None,
    rounds: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    backend: str = "sequential",
    material_source: Optional[str] = None,
    online: Optional[bool] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Write the uniform per-experiment JSON record (schema ``bench.v1``).

    Args:
        experiment: Experiment id (``E6``); names the output file.
        protocol: Protocol/system under test (``sbc``, ``tle``, ...).
        n: Largest party count exercised.
        rounds: Rounds driven (or None when not round-structured).
        wall_time_s: Sweep wall time; defaults to the most recent
            :func:`once` timing.
        backend: Execution backend the sweep ran under.
        material_source: Where worker crypto caches came from
            (``compute``/``disk``/``shared``).  Mandatory for the
            experiments in :data:`MATERIAL_SOURCE_REQUIRED` — a sweep
            speedup claim is not comparable across PRs without it.
        online: Whether trials spent the preprocessed randomness pools
            (the offline/online protocol mode).  Mandatory for
            :data:`ONLINE_REQUIRED` experiments.
        extra: Free-form experiment parameters, stored under ``params``.

    Raises:
        ValueError: a :data:`MATERIAL_SOURCE_REQUIRED` experiment did not
            state its material source, or an :data:`ONLINE_REQUIRED` one
            did not state its online axis.
    """
    if experiment in MATERIAL_SOURCE_REQUIRED and material_source is None:
        raise ValueError(
            f"{experiment} records must carry material_source "
            "(compute/disk/shared); see MATERIAL_SOURCE_REQUIRED"
        )
    if experiment in ONLINE_REQUIRED and online is None:
        raise ValueError(
            f"{experiment} records must state online=True/False; "
            "see ONLINE_REQUIRED"
        )
    if wall_time_s is None:
        wall_time_s = _LAST_ONCE_S
    record: Dict[str, Any] = {
        "schema": "bench.v1",
        "experiment": experiment,
        "protocol": protocol,
        "n": n,
        "rounds": rounds,
        "wall_time_s": round(wall_time_s, 6) if wall_time_s is not None else None,
        "backend": backend,
        # Multi-core sweeps only beat inline with real cores behind them;
        # recording the host's count keeps cross-run speedups comparable.
        "cpus": os.cpu_count(),
    }
    if material_source is not None:
        record["material_source"] = material_source
    if online is not None:
        record["online"] = online
    if extra:
        record["params"] = extra
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def emit(
    experiment: str,
    title: str,
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
    n: Optional[int] = None,
    rounds: Optional[int] = None,
    backend: str = "sequential",
    material_source: Optional[str] = None,
    online: Optional[bool] = None,
    **extra: Any,
) -> str:
    """Format, print and persist one experiment table.

    When ``protocol`` is given, also emits the experiment's uniform JSON
    record via :func:`bench_record` (timed by the surrounding
    :func:`once` call).
    """
    from repro.analysis.tables import format_table

    table = format_table(rows, columns=columns, title=f"[{experiment}] {title}")
    print("\n" + table, file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(table + "\n")
    if protocol is not None:
        bench_record(
            experiment, protocol, n=n, rounds=rounds, backend=backend,
            material_source=material_source, online=online, **extra,
        )
    return table
