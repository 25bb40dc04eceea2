"""Compare benchmark runs of two commits by the rule a claimed gain must meet.

Usage (from the repository root)::

    # Measure: MIN_PAIRS parent/change pairs per workload, alternating which
    # side runs first, then one traced run per side for the layer diff.
    python3 benchmarks/perf/compare.py run --parent DIR --change DIR \\
        [--workload NAME ...] [--seed S] [--out DIR] [--claim WORKLOAD:METRIC ...]

    # Judge records already measured (run.py's records.jsonl files).
    python3 benchmarks/perf/compare.py report PARENT.jsonl [CHANGE.jsonl] \\
        [--claim WORKLOAD:METRIC ...]

Runs are paired by workload and seed.  A workload is ``failed`` on
every metric, and no claim on it is met, when a run on either side had
a failed session or a seed was run on one side only (a run that
crashed leaves no record).  Otherwise the rule, per workload and
end-to-end metric (``BENCHMARK.json`` gives each metric's direction
and bound):

* a *claimed* gain needs at least :data:`MIN_PAIRS` pairs, the change
  winning at least 9 in 10 of them (ties count for neither side), and a
  median gap wider than the parent's own spread (its interquartile
  range); otherwise the claim is reported as not met;
* every other metric is ``better`` when every change run beats every
  parent run, ``unresolved`` when the parent's spread exceeds the bound,
  ``regressed`` when the change's median is worse than the parent's by
  more than the bound, and ``ok`` otherwise;
* for a regressed or unresolved metric the traced runs name the layer
  whose per-session self time grew most — self times partition session
  time, so the growth is where the time went.

With one records file, ``report`` prints each metric's median, quartiles
and spread instead.  The exit code is 1 when a workload failed, a metric
regressed or a claim was not met.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path: pathlib.Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _worse(metric: Dict[str, Any], change: float, parent: float) -> float:
    """How much worse ``change`` is than ``parent`` (negative: better)."""
    return parent - change if metric["better"] == "higher" else change - parent


def series(records: List[Dict[str, Any]], workload: str, name: str, trace: int = 0) -> List[float]:
    """One metric's values over a side's runs of ``workload``, in run order."""
    return [
        r["metrics"][name] for r in records
        if r["workload"] == workload and r.get("trace", 0) == trace and name in r["metrics"]
    ]


def judge(metric: Dict[str, Any], parent: List[float], change: List[float],
          claimed: bool) -> Dict[str, Any]:
    """The verdict for one metric on one workload; ``parent[i]`` and
    ``change[i]`` are runs on the same seed."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _worse(metric, c, p) < 0)
    losses = sum(1 for p, c in pairs if _worse(metric, c, p) > 0)
    worse = _worse(metric, change_median, parent_median) / parent_median
    row = {
        "metric": metric["name"], "parent_median": parent_median, "change_median": change_median,
        "parent_spread": (q3 - q1) / parent_median, "worse_frac": worse,
        "pairs": len(pairs), "wins": wins, "losses": losses,
    }
    if claimed:
        met = (
            len(pairs) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(pairs)
            and -worse * parent_median > q3 - q1
        )
        row["verdict"] = "claim met" if met else "claim not met"
    elif all(_worse(metric, c, p) < 0 for p in parent for c in change):
        row["verdict"] = "better"
    elif row["parent_spread"] > metric["bound"]:
        row["verdict"] = "unresolved"
    elif worse > metric["bound"]:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "ok"
    return row


def layer_blame(parent: List[Dict[str, Any]], change: List[Dict[str, Any]], workload: str,
                bench: Dict[str, Any]) -> Optional[Tuple[str, float]]:
    """The per-session self-time metric that grew most, with its growth."""
    growth = []
    for metric in bench["per_layer"]:
        if metric["unit"] != "ms/session":
            continue
        before = series(parent, workload, metric["name"], trace=1)
        after = series(change, workload, metric["name"], trace=1)
        if before and after:
            growth.append((statistics.median(after) - statistics.median(before), metric["name"]))
    if not growth:
        return None
    delta, name = max(growth)
    return name, delta


def check_claims(claims: Sequence[str], bench: Dict[str, Any]) -> None:
    """Refuse a claim that names no workload × end-to-end metric."""
    known = {f"{w['name']}:{m['name']}" for w in bench["workloads"] for m in bench["end_to_end"]}
    unknown = sorted(set(claims) - known)
    if unknown:
        raise ValueError(f"unknown claim(s) {unknown}; name them WORKLOAD:METRIC")


def untraced(records: List[Dict[str, Any]], workload: str) -> List[Dict[str, Any]]:
    return [r for r in records if r["workload"] == workload and r.get("trace", 0) == 0]


def problems(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> List[str]:
    """Why one workload's runs cannot be judged (empty: they can)."""
    found = []
    seeds = {}
    for label, side in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in side)
        if failed:
            found.append(f"{label} runs failed {failed} session(s)")
        seeds[label] = [r["seed"] for r in side]
        repeated = sorted({s for s in seeds[label] if seeds[label].count(s) > 1})
        if repeated:
            found.append(f"{label} ran seed(s) {repeated} more than once")
    for label, other in (("change", "parent"), ("parent", "change")):
        missing = sorted(set(seeds[other]) - set(seeds[label]))
        if missing:
            found.append(f"no {label} run for seed(s) {missing}")
    return found


def compare(parent: List[Dict[str, Any]], change: List[Dict[str, Any]], bench: Dict[str, Any],
            claims: Sequence[str] = ()) -> List[Dict[str, Any]]:
    """Judge every workload × end-to-end metric; rows carry the verdicts."""
    check_claims(claims, bench)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        before, after = untraced(parent, workload), untraced(change, workload)
        if not before and not after:
            continue
        trouble = problems(before, after)
        before = {r["seed"]: r["metrics"] for r in before}
        after = {r["seed"]: r["metrics"] for r in after}
        seeds = sorted(set(before) & set(after))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            claimed = f"{workload}:{name}" in claims
            carried = [name in metrics for metrics in (*before.values(), *after.values())]
            if not any(carried):
                continue
            if trouble or not all(carried):
                reason = "; ".join(trouble) or f"{name} is missing from some runs"
                rows.append({"workload": workload, "metric": name, "claimed": claimed,
                             "verdict": "failed", "reason": reason})
                continue
            row = {"workload": workload, **judge(metric, [before[s][name] for s in seeds],
                                                 [after[s][name] for s in seeds], claimed)}
            if row["verdict"] in ("regressed", "unresolved"):
                blame = layer_blame(parent, change, workload, bench)
                if blame is not None:
                    row["layer"], row["layer_growth_ms"] = blame
            rows.append(row)
    return rows


def agreement(first: List[Dict[str, Any]], second: List[Dict[str, Any]],
              bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Whether two run sets of one commit agree within each metric's bound."""
    rows = []
    for workload in sorted({r["workload"] for r in first}):
        for metric in bench["end_to_end"]:
            a = series(first, workload, metric["name"])
            b = series(second, workload, metric["name"])
            if not a or not b:
                continue
            gap = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a)
            rows.append({
                "workload": workload, "metric": metric["name"], "gap_frac": gap,
                "bound": metric["bound"], "verdict": "agree" if gap <= metric["bound"] else "differ",
            })
    return rows


def measure(parent: pathlib.Path, change: pathlib.Path, workloads: Sequence[str], seed: int,
            out: pathlib.Path) -> None:
    """Run :data:`MIN_PAIRS` alternating pairs per workload, then one traced
    run per side."""
    def run(side: pathlib.Path, label: str, workload: str, run_seed: int, trace: int) -> None:
        # A run that fails a session exits 1 but still writes its record,
        # and a crashed run leaves its seed unpaired: compare() flags both.
        subprocess.run(
            ["python3", "benchmarks/perf/run.py", "--workload", workload, "--seed", str(run_seed),
             "--trace", str(trace), "--out", str(out / label)],
            cwd=side, check=False,
        )

    for workload in workloads:
        for index in range(MIN_PAIRS):
            sides = [(parent, "parent"), (change, "change")]
            for side, label in sides if index % 2 == 0 else reversed(sides):
                run(side, label, workload, seed + index, 0)
        for side, label in ((parent, "parent"), (change, "change")):
            run(side, label, workload, seed, 1)


def print_rows(rows: List[Dict[str, Any]]) -> None:
    for row in rows:
        if row["verdict"] == "failed":
            print(f"{row['workload']:14s} {row['metric']:16s} failed: {row['reason']}")
            continue
        line = (f"{row['workload']:14s} {row['metric']:16s} parent {row['parent_median']:.4g} "
                f"change {row['change_median']:.4g} worse {row['worse_frac']:+.1%} "
                f"spread {row['parent_spread']:.1%} wins {row['wins']}/{row['pairs']} "
                f"{row['verdict']}")
        if "layer" in row:
            line += f" (layer {row['layer']} +{row['layer_growth_ms']:.3f} ms/session)"
        print(line)


def print_spreads(records: List[Dict[str, Any]], bench: Dict[str, Any]) -> None:
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            values = series(records, workload, metric["name"])
            if values:
                q1, median, q3 = quartiles(values)
                print(f"{workload:14s} {metric['name']:16s} n={len(values)} median {median:.4g} "
                      f"q1 {q1:.4g} q3 {q3:.4g} spread {spread(values):.2%} "
                      f"bound {metric['bound']:.0%}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure alternating pairs, then report")
    run.add_argument("--parent", type=pathlib.Path, required=True)
    run.add_argument("--change", type=pathlib.Path, required=True)
    run.add_argument("--workload", action="append")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", type=pathlib.Path, default=ROOT / "benchmarks" / "results" / "compare")
    report = commands.add_parser("report", help="judge existing records")
    report.add_argument("parent_records", type=pathlib.Path)
    report.add_argument("change_records", type=pathlib.Path, nargs="?")
    for sub in (run, report):
        sub.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_claims(args.claim, bench)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "run":
        if (args.out / "parent").exists() or (args.out / "change").exists():
            parser.error(f"{args.out} already holds records; pass a fresh --out")
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        measure(args.parent.resolve(), args.change.resolve(), workloads, args.seed,
                args.out.resolve())
        parent = load_records(args.out / "parent" / "records.jsonl")
        change = load_records(args.out / "change" / "records.jsonl")
    else:
        parent = load_records(args.parent_records)
        if args.change_records is None:
            print_spreads(parent, bench)
            return 0
        change = load_records(args.change_records)
    rows = compare(parent, change, bench, args.claim)
    print_rows(rows)
    failing = {"failed", "regressed", "claim not met"}
    return 1 if any(row["verdict"] in failing for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
