"""Run the benchmark: each workload in fresh processes, outputs checked.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace 0|1] [--runs K] [--out DIR]
        [--baseline PATH]

Every run of a workload starts ``workloads.py`` in a new process with a
scratch material store (under the git-ignored ``benchmarks/results/``),
so imports, warm-up and the store build are paid inside the run and
measured as ``setup_s``.  An untraced run
(``--trace 0``, the default) prints the end-to-end metrics named in
``BENCHMARK.json``; it also starts the workload's set-up alone
:data:`SETUP_REPS` − 1 more times and reports the median set-up time.  A
traced run prints the per-layer metrics instead.  Each metric is
printed as ``workload name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(medians over ``--runs``; keys carry a ``workload/`` prefix when several
workloads ran).  The exit code is 1 when any session failed its check.

``--out`` (default ``benchmarks/results/perf``) receives one JSON line
per run in ``records.jsonl`` and the traced runs' coarse spans.
``--baseline PATH`` measures two sets of ``--runs`` untraced runs plus
one traced run per workload and writes them, with the host description
and the agreement between the two sets, to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds the measuring process may take beyond ``--seconds`` (set-up,
#: output checks and digest replays), and a set-up-only process in all.
#: With the default 20 s a run ends within 20 + 90 + 2 × 30 = 170 s.
CHILD_GRACE_S = 90
SETUP_TIMEOUT_S = 30


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_child(command: List[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run one workload process (in its own process group) to completion.

    The group is killed on every exit path, so a crashed or timed-out
    workload leaves no pool worker behind.
    """
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"workload process timed out after {timeout:.0f}s") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited with code {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             out: Optional[pathlib.Path]) -> Dict[str, Any]:
    """One run of one workload: the measuring process, then extra set-ups."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    RESULTS.mkdir(parents=True, exist_ok=True)
    record: Dict[str, Any] = {}
    setups = []
    for rep in range(1 if trace else SETUP_REPS):
        scratch = tempfile.mkdtemp(prefix="material-", dir=RESULTS)
        env["REPRO_MATERIAL_DIR"] = scratch
        command = [
            sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        if rep:
            command.append("--setup-only")
        if out is not None:
            command += ["--out", str(out)]
        try:
            result = run_child(command + ["--t0", repr(time.monotonic())], env,
                               SETUP_TIMEOUT_S if rep else seconds + CHILD_GRACE_S)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not rep:
            record = result
        setups.append(result["setup_s"])
    if not trace and record.get("metrics"):
        record["metrics"]["setup_s"] = statistics.median(setups)
    return record


def run_set(workloads: List[str], seed: int, runs: int, seconds: float, trace: bool,
            out: Optional[pathlib.Path], bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    """``runs`` runs of every workload (run ``k`` uses seed ``seed + k``),
    each printed as it finishes."""
    declared = bench["per_layer" if trace else "end_to_end"]
    records = []
    for workload in workloads:
        for run in range(runs):
            record = run_once(workload, seed + run, seconds, trace, out)
            missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
            if missing:
                record["failed"] = max(record["failed"], 1)
                record["errors"].append(f"metrics not reported: {', '.join(missing)}")
            for metric in declared:
                value = record["metrics"].get(metric["name"])
                if value is not None:
                    print(f"{workload} {metric['name']} {value:.6g} {metric['unit']}")
            if "host_speed" in record:
                print(f"{workload} host_speed {record['host_speed']:.4f} (timings corrected by it)")
            for error in record["errors"]:
                print(f"{workload} FAILED {error}", file=sys.stderr)
            record.update(run=run, seconds=seconds, cpus=os.cpu_count(), git_sha=_git_sha())
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                with open(out / "records.jsonl", "a") as handle:
                    handle.write(json.dumps(record) + "\n")
            records.append(record)
    return records


def summary(records: List[Dict[str, Any]], bench: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The result line: medians over runs, one key per metric (and workload)."""
    declared = bench["per_layer" if trace else "end_to_end"]
    workloads = sorted({record["workload"] for record in records})
    metrics = {}
    for workload in workloads:
        mine = [record for record in records if record["workload"] == workload]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for metric in declared:
            values = [r["metrics"][metric["name"]] for r in mine if metric["name"] in r["metrics"]]
            if values:
                metrics[prefix + metric["name"]] = {
                    "value": statistics.median(values), "unit": metric["unit"],
                }
    failed = sum(record["failed"] for record in records)
    return {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }


def write_baseline(path: pathlib.Path, workloads: List[str], seed: int, runs: int,
                   seconds: float, out: Optional[pathlib.Path], bench: Dict[str, Any]) -> bool:
    """Two untraced sets and one traced run per workload, written to ``path``."""
    import compare

    sets = [run_set(workloads, seed, runs, seconds, False, out, bench) for _ in range(2)]
    traced = run_set(workloads, seed, 1, seconds, True, out, bench)
    agreement = compare.agreement(sets[0], sets[1], bench)
    probe = traced[0]
    baseline = {
        "host": {
            "cpus": os.cpu_count(),
            "arith": probe.get("arith"),
            "python": probe.get("python"),
            "git_sha": _git_sha(),
        },
        "command": (f"python3 benchmarks/perf/run.py --baseline {path.resolve().relative_to(ROOT)}"
                    f" --runs {runs} --seed {seed} --seconds {seconds:g}"),
        "seconds": seconds,
        "seeds": list(range(seed, seed + runs)),
        "sets": [[{k: r[k] for k in ("workload", "seed", "attempted", "failed", "metrics")}
                  for r in records] for records in sets],
        "agreement": agreement,
        "layers": {record["workload"]: record["metrics"] for record in traced},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    for row in agreement:
        print(f"agreement {row['workload']} {row['metric']} {row['verdict']}")
    records = sets[0] + sets[1] + traced
    return all(record["failed"] == 0 for record in records) and all(
        row["verdict"] == "agree" for row in agreement
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS / "perf")
    parser.add_argument("--baseline", type=pathlib.Path)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [workload["name"] for workload in bench["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.runs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--runs must be >= 1")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.baseline is not None:
        return 0 if write_baseline(args.baseline, workloads, args.seed, args.runs, seconds,
                                   args.out, bench) else 1
    trace = bool(args.trace)
    records = run_set(workloads, args.seed, args.runs, seconds, trace, args.out, bench)
    result = summary(records, bench, trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
