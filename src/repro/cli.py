"""Command-line front end: run the paper's systems from a shell.

Usage::

    python -m repro.cli sbc       --n 4 --mode composed --messages a b c
    python -m repro.cli beacon    --n 5
    python -m repro.cli election  --voters 5 --candidates yes no
    python -m repro.cli auction   --bids 410 365 298
    python -m repro.cli lineage   --n 4 16 64
    python -m repro.cli sweep     --sessions 64 --executor process --workers 4 --verify
    python -m repro.cli material  build --for-sweep 64
    python -m repro.cli sweep     --sessions 64 --material shared
    python -m repro.cli sweep     --sessions 64 --workload voting --material shared --online --verify
    python -m repro.cli material  inspect
    python -m repro.cli serve     --sessions 256 --duration 30 --online --material disk

Every protocol command accepts ``--backend`` to pick the execution
backend.  There is one engine: ``sequential`` is the reference, and
``pooled`` and ``batched`` are other spellings of it (``batched`` turns
the trace off); ``async`` runs the same round and yields to the event
loop between rounds, which keeps ``serve``'s loop responsive while it
runs its sessions oldest-first.  The
top-level ``--arith`` flag selects the big-integer arithmetic tier
(``auto`` picks gmpy2 when installed, else libcrypto's ``openssl``;
results are identical across tiers, only speed changes), and ``--batch-verify`` on the
sweep/scenario/election commands batches verification rounds
through random-linear-combination multi-exps.

The execution knobs on ``sweep``/``scenarios run``/``serve``
are one shared flag set (:func:`repro.runtime.config.add_sweep_options`)
feeding one :class:`repro.runtime.config.SweepConfig` — the same object
the Python entry points take via ``config=``.  The chunked fan-out flags
(:func:`repro.runtime.config.add_fanout_options`: chunk size, journal,
chaos, retry attempts, deadline cap) go on the two sweep commands only.

Online mode is build, attach, spend, ledger: ``material build`` writes
the pools, every online run spends its slices from index 0 of the blob
it planned against, and ``material inspect`` shows the ledger's spend
sums.  Rebuild the store to get fresh pools.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table


def _cmd_sbc(args: argparse.Namespace) -> int:
    from repro.core import build_sbc_stack

    stack = build_sbc_stack(n=args.n, mode=args.mode, seed=args.seed, backend=args.backend)
    messages = args.messages or ["hello", "world"]
    for index, text in enumerate(messages):
        stack.parties[f"P{index % args.n}"].broadcast(text.encode())
    stack.run_until_delivery()
    print(f"mode={args.mode}  n={args.n}  period=[0,{stack.phi})  "
          f"release={stack.phi + stack.delta}")
    for item in stack.delivered()["P0"]:
        print(f"  delivered: {item!r}")
    return 0


def _cmd_beacon(args: argparse.Namespace) -> int:
    from repro.core import build_durs_stack

    stack = build_durs_stack(n=args.n, mode=args.mode, seed=args.seed, backend=args.backend)
    stack.parties["P0"].urs_request()
    stack.run_until_urs()
    urs = stack.urs_values()["P0"]
    print(f"uniform random string ({args.n} contributors): {urs.hex()}")
    return 0


def _cmd_election(args: argparse.Namespace) -> int:
    from repro.core import build_voting_stack
    from repro.crypto.batch import BatchPolicy, batching

    candidates = tuple(args.candidates)
    policy = BatchPolicy() if args.batch_verify else None
    with batching(policy):
        stack = build_voting_stack(
            voters=args.voters, mode=args.mode, seed=args.seed, candidates=candidates,
            backend=args.backend,
        )
        if args.mode == "ideal":
            stack.service.init()
        else:
            for authority in stack.authorities.values():
                authority.deal()
            stack.run_rounds(1)
        for index in range(args.voters):
            choice = candidates[index % len(candidates)]
            stack.parties[f"V{index}"].vote(choice)
            print(f"V{index} cast (hidden until the release round)")
        stack.run_until_result()
    print(f"self-tally: {stack.results()['V0']}")
    metrics = stack.session.metrics
    if policy is not None:
        print(
            f"tally verification: batched (combined RLC equations: "
            f"{metrics.get('rlc.evaluated')} evaluated, {metrics.get('rlc.shared')} "
            f"verdicts shared across voter views; membership screens: "
            f"{metrics.get('members.checked')} computed, "
            f"{metrics.get('members.shared')} shared)"
        )
    if metrics.get("proofs.checked"):
        print(
            f"tally verification: per-proof ({metrics.get('proofs.checked')} distinct "
            f"proofs checked, {metrics.get('proofs.shared')} verdicts shared across "
            "voter views)"
        )
    return 0


def _cmd_auction(args: argparse.Namespace) -> int:
    from repro.core import build_sbc_stack

    bids = args.bids or [410, 365, 298]
    stack = build_sbc_stack(n=len(bids) + 1, mode=args.mode, seed=args.seed, backend=args.backend)
    for index, amount in enumerate(bids):
        stack.parties[f"P{index}"].broadcast(f"bid:P{index}:{amount:06d}".encode())
    stack.run_until_delivery()
    batch = stack.delivered()["P0"]
    best = max(
        (int(b.decode().split(":")[2]), b.decode().split(":")[1])
        for b in batch
        if isinstance(b, bytes)
    )
    print(f"sealed bids revealed simultaneously at round {stack.phi + stack.delta}:")
    for item in batch:
        print(f"  {item.decode()}")
    print(f"winner: {best[1]} at {best[0]}")
    return 0


def _sbc_params_error(params: dict) -> Optional[str]:
    """Build one SBC stack here; return the error a session would raise.

    ΠSBC checks Theorem 2's timing conditions (phi > delay, delta >
    leak advantage) when a session builds its stack.  Under the process
    executor every trial would fail in a worker and be quarantined, so
    the bad parameter would never be named; one stack built in this
    process names it the way a bad flag is named.
    """
    from repro.core import build_sbc_stack

    try:
        build_sbc_stack(
            n=params["n"], mode=params["mode"], phi=params["phi"],
            delta=params["delta"],
        )
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import SessionPool, SweepConfig

    if args.sessions < 1:
        print("--sessions must be >= 1 (an empty sweep has nothing to report)",
              file=sys.stderr)
        return 2
    if args.workload == "voting":
        from repro.runtime import run_voting_trial

        runner = run_voting_trial
        params = dict(voters=args.n, mode=args.mode)
    else:
        from repro.runtime import run_sbc_trial

        runner = run_sbc_trial
        params = dict(
            n=args.n, mode=args.mode, phi=args.phi, delta=args.delta,
            senders=args.senders,
        )
        error = _sbc_params_error(params)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    trace = args.trace
    if args.verify and trace != "full":
        if not args.json:
            print("--verify compares trace digests: forcing --trace full")
        trace = "full"
    try:
        config = SweepConfig.from_args(args, backend=args.backend, trace=trace)
        sweep = SessionPool(runner, config=config, **params)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    seeds = list(range(args.seed, args.seed + args.sessions))
    try:
        if args.verify:
            verdict = sweep.verify(seeds)
            report = verdict.report
        else:
            report = sweep.run(seeds)
    except (FileNotFoundError, ValueError) as exc:
        # A missing/mismatched resume journal is an operator error,
        # not a crash: report it the same way bad flags are.
        print(str(exc), file=sys.stderr)
        return 2
    # The plan the run resolved: a resume plans only its unjournaled tasks.
    plan = report.plan
    if not args.json:
        print(format_table(
            [plan.summary()],
            title=f"sweep plan: {args.sessions} x {args.workload} ({args.mode})",
        ))
    if args.verify:
        if args.json:
            print(json.dumps(
                {
                    "plan": plan.summary(),
                    "report": verdict.report.summary(),
                    "reference": verdict.reference.summary(),
                    "speedup_vs_inline": round(verdict.speedup, 4),
                    "digests_match": verdict.matched,
                },
                indent=2,
            ))
        else:
            print(format_table(
                [verdict.report.summary(), verdict.reference.summary()],
                title="sweep vs inline reference",
            ))
            print(f"speedup vs inline: {verdict.speedup:.2f}x")
            print(f"trace digests match inline reference, seed for seed: "
                  f"{'yes' if verdict.matched else 'NO'}")
        return 0 if verdict.matched else 1
    error = report.quarantine_error()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {"plan": plan.summary(), "report": report.summary()}, indent=2,
        ))
        return 0
    print(format_table([report.summary()], title="sweep"))
    print(f"per-session: {report.wall_time_s / max(report.sessions, 1) * 1000:.2f} ms")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import (
        AsyncSessionHost,
        SweepConfig,
        async_sbc_session,
        async_voting_session,
        online_ranges_disjoint,
        run_sbc_trial,
        run_voting_trial,
    )

    if args.sessions < 1:
        print("--sessions must be >= 1 (a host with no sessions has nothing "
              "to report)", file=sys.stderr)
        return 2
    try:
        config = SweepConfig.from_args(args, backend=args.backend)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # Inline hosting runs coroutine sessions oldest-first on the loop;
    # the executor modes offload the picklable synchronous trial runners.
    if args.workload == "voting":
        runner = async_voting_session if config.executor == "inline" else run_voting_trial
        params = dict(voters=args.n, mode=args.mode)
    else:
        runner = async_sbc_session if config.executor == "inline" else run_sbc_trial
        params = dict(n=args.n, mode=args.mode)
    try:
        host = AsyncSessionHost(
            runner,
            config=config,
            session_timeout_s=args.session_timeout_s,
            **params,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    seeds = list(range(args.seed, args.seed + args.sessions))
    report = host.run(seeds, duration_s=args.duration)
    if not report.results:
        print("the host admitted no sessions before --duration elapsed",
              file=sys.stderr)
        return 2
    disjoint = True
    spends = 0
    if config.online:
        disjoint, spends = online_ranges_disjoint(report.results)
    if args.json:
        record = report.summary()
        if config.online:
            record["spends_checked"] = spends
            record["spends_disjoint"] = disjoint
        print(json.dumps(record, indent=2))
    else:
        print(format_table(
            [report.summary()],
            title=f"serve: {report.sessions} x {args.workload} ({args.mode})",
        ))
        print(f"sessions/sec: {report.sessions_per_s:.1f}  "
              f"(completed out of submission order: {report.interleaved})")
        if config.online:
            print(f"online spends checked: {spends}  disjoint: "
                  f"{'yes' if disjoint else 'NO'}")
    return 0 if disjoint else 1


def _scenario_specs(args: argparse.Namespace):
    from repro.scenarios import default_matrix, extra_scenarios

    specs = default_matrix(seed=args.seed).expand() + extra_scenarios(seed=args.seed)
    if args.backend:
        specs = [spec for spec in specs if spec.backend == args.backend]
    if args.cell:
        specs = [spec for spec in specs if args.cell in spec.cell_id]
    return specs


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import run_matrix

    specs = _scenario_specs(args)
    if not specs:
        print("no scenarios match the given filters", file=sys.stderr)
        return 2

    if args.action == "list":
        if args.json:
            print(json.dumps(
                [
                    {
                        "cell": spec.cell_id,
                        "stack": spec.stack,
                        "adversary": spec.adversary,
                        "fault": spec.faults.name,
                        "backend": spec.backend,
                        "expect": spec.expectations(),
                    }
                    for spec in specs
                ],
                indent=2,
            ))
        else:
            rows = [
                {
                    "cell": spec.cell_id,
                    "expected properties": " ".join(
                        f"{name}={'T' if must else 'F'}"
                        for name, must in spec.expect
                    ),
                }
                for spec in specs
            ]
            print(format_table(rows, title=f"{len(specs)} scenario cells"))
        return 0

    try:
        from repro.runtime import SweepConfig

        # The matrix's --backend flag filters *cells*; each cell pins its
        # own execution backend, so the pool-level backend stays at the
        # default (run_matrix forces it to sequential regardless).
        config = SweepConfig.from_args(args, backend="sequential")
        report = run_matrix(specs, config=config)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    mismatches = report.backend_mismatches()
    if args.json:
        print(json.dumps(
            {
                "summary": report.summary(),
                "backend_mismatches": mismatches,
                "cells": [cell.summary() for cell in report.cells],
            },
            indent=2,
        ))
    else:
        rows = []
        for cell in report.cells:
            failed = " ".join(
                f"{p.name}({p.holds}!={p.expected})" for p in cell.mismatches
            )
            rows.append(
                {
                    "cell": cell.cell_id,
                    "rounds": cell.rounds,
                    "ok": "yes" if cell.ok else "NO",
                    "mismatched": failed or "-",
                }
            )
        print(format_table(
            rows,
            title=f"scenario matrix: {len(report.cells)} cells "
            f"({report.wall_time_s:.2f}s, {args.executor})",
        ))
        summary = report.summary()
        print(f"ok {summary['ok']}/{summary['cells']}  "
              f"backend digest mismatches: {len(mismatches)}")
        for line in mismatches:
            print(f"  digest mismatch: {line}")
    return 0 if report.ok and not mismatches else 1


def _cmd_material(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import MaterialStore

    if args.action == "build":
        for flag, value in (("--nonces", args.nonces), ("--feldman", args.feldman)):
            if value < 0:
                print(f"{flag} must be >= 0", file=sys.stderr)
                return 2
    store = MaterialStore(args.dir)
    if args.action == "build":
        nonces, feldman = args.nonces, args.feldman
        if args.for_sweep is not None:
            # Size the pools so an online run of that many tasks never
            # falls back to sampling.
            from repro.runtime import online_pool_requirement

            if args.for_sweep < 1:
                print("--for-sweep must be >= 1", file=sys.stderr)
                return 2
            required = online_pool_requirement(args.for_sweep)
            nonces = max(nonces, required["nonces"])
            feldman = max(feldman, required["feldman"])
            print(f"sized for a {args.for_sweep}-task online sweep: "
                  f"{nonces} nonces, {feldman} feldman entries")
        built = store.build(
            nonces=nonces,
            feldman=feldman,
            feldman_threshold=args.threshold,
            seed=args.seed,
        )
        rows = [material.summary() for material in built]
        print(format_table(rows, title=f"built {len(rows)} material sets -> {store.root}"))
        return 0
    if args.action == "inspect":
        records = store.inspect()
        if args.json:
            print(json.dumps(records, indent=2))
        elif not records:
            print(f"preprocessing store at {store.root} is empty "
                  "(run 'repro material build')")
        else:
            print(format_table(records, title=f"preprocessing store: {store.root}"))
        bad = [record for record in records if not record.get("ok")]
        if bad:
            # Integrity failures must be loud *and* machine-visible: a
            # fleet provisioning script keying on the exit code should
            # never ship a corrupt or misnamed blob to its workers.
            for record in bad:
                print(f"INTEGRITY: {record['file']}: {record.get('error')}",
                      file=sys.stderr)
            return 1
        return 0
    removed = store.clear()
    print(f"removed {removed} material file(s) from {store.root}")
    return 0


def _cmd_lineage(args: argparse.Namespace) -> int:
    from repro.baselines.rounds_models import complexity_table

    rows = complexity_table(args.n)
    print(format_table(rows, title="SBC lineage (rounds/messages/tolerance)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UC simultaneous broadcast against a dishonest majority",
    )
    parser.add_argument(
        "--arith", choices=("auto", "gmpy2", "openssl", "python"), default=None,
        help="big-integer arithmetic tier: 'gmpy2' requires the optional "
             "native extra, 'openssl' calls the libcrypto CPython's "
             "hashlib already loads, 'python' forces the stdlib fallback, "
             "'auto' (the default) picks the first available of gmpy2, "
             "openssl and python; every tier produces identical values "
             "and trace digests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, modes=("ideal", "hybrid", "composed")) -> None:
        from repro.runtime import available_backends

        p.add_argument("--mode", choices=modes, default="hybrid")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--backend",
            choices=sorted(available_backends()),
            default="sequential",
            help="execution backend (sequential = reference engine)",
        )

    p = sub.add_parser("sbc", help="run a simultaneous-broadcast session")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--messages", nargs="*", default=None)
    p.set_defaults(func=_cmd_sbc)

    p = sub.add_parser("beacon", help="generate a delayed uniform random string")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_beacon)

    p = sub.add_parser("election", help="run a self-tallying election")
    common(p)
    p.add_argument("--voters", type=int, default=3)
    p.add_argument("--candidates", nargs="+", default=["yes", "no"])
    p.add_argument(
        "--batch-verify", action="store_true",
        help="verify the tally round's certificates and ballot proofs as "
             "one random-linear-combination batch per voter view",
    )
    p.set_defaults(func=_cmd_election)

    p = sub.add_parser("auction", help="run a sealed-bid auction over SBC")
    common(p)
    p.add_argument("--bids", nargs="*", type=int, default=None)
    p.set_defaults(func=_cmd_auction)

    # One shared execution-flag block (the SweepConfig knob set) for
    # sweep/scenarios run/serve, plus the chunked fan-out block for
    # the two sweep commands — defined once in runtime.config so the
    # subcommands cannot drift apart again.
    from repro.runtime.config import add_fanout_options, add_sweep_options

    p = sub.add_parser(
        "sweep",
        help="multi-core SBC session sweep (chunked process fan-out)",
    )
    common(p)
    p.add_argument("--sessions", type=int, default=64, help="number of independent sessions")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--phi", type=int, default=5)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--senders", type=int, default=2)
    p.add_argument(
        "--workload", choices=("sbc", "voting"), default="sbc",
        help="trial workload: SBC sessions, or self-tallying elections "
             "(each ballot burns a real Σ-protocol nonce — the workload "
             "that visibly spends pools under --online)",
    )
    add_sweep_options(p, executor_default="process", trace_default="light")
    add_fanout_options(p)
    p.add_argument(
        "--verify", action="store_true",
        help="also run the inline reference and require seed-for-seed "
             "digest equality (exit 1 on divergence)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the resolved plan and report as JSON instead of tables",
    )
    p.set_defaults(func=_cmd_sweep, backend="pooled")

    p = sub.add_parser(
        "serve",
        help="service mode: host N concurrent sessions on one asyncio "
             "loop (the `async` backend: sessions take turns per round)",
    )
    common(p)
    p.add_argument("--sessions", type=int, default=64,
                   help="number of concurrent sessions to host")
    p.add_argument("--n", type=int, default=3,
                   help="parties (sbc) or voters (voting) per session")
    p.add_argument(
        "--workload", choices=("voting", "sbc"), default="voting",
        help="per-session workload (voting burns real Σ-protocol nonces, "
             "the workload that visibly spends pools under --online)",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="admission budget: stop starting new sessions once this "
             "much wall time has elapsed (admitted sessions finish)",
    )
    p.add_argument(
        "--session-timeout-s", type=float, default=600.0,
        help="wall-clock bound on one executor-offloaded session",
    )
    add_sweep_options(p, executor_default="inline", trace_default="light")
    p.add_argument("--json", action="store_true",
                   help="emit the host report as JSON")
    p.set_defaults(func=_cmd_serve, backend="async")

    p = sub.add_parser(
        "material",
        help="manage the preprocessing store (offline crypto material)",
    )
    p.add_argument("action", choices=("build", "inspect", "clear"))
    p.add_argument(
        "--dir", default=None,
        help="store directory (default: $REPRO_MATERIAL_DIR or "
             "~/.cache/repro-material)",
    )
    p.add_argument("--nonces", type=int, default=128,
                   help="Schnorr nonce pairs (k, g^k) per parameter set")
    p.add_argument("--feldman", type=int, default=16,
                   help="Feldman-committed random polynomials per set")
    p.add_argument("--for-sweep", type=int, default=None, metavar="SESSIONS",
                   help="size the pools for an online sweep of this many "
                        "tasks (raises --nonces/--feldman to the sweep "
                        "plan's requirement)")
    p.add_argument("--threshold", type=int, default=2,
                   help="degree t of the preprocessed Feldman polynomials")
    p.add_argument("--seed", type=int, default=0,
                   help="offline-phase seed (recorded in the material)")
    p.add_argument("--json", action="store_true",
                   help="emit inspect records as JSON")
    p.set_defaults(func=_cmd_material)

    p = sub.add_parser(
        "scenarios",
        help="list or run the adversarial scenario conformance matrix",
    )
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend", default=None,
        help="restrict cells to one execution backend (default: all axes)",
    )
    p.add_argument(
        "--cell", default=None, metavar="SUBSTR",
        help="restrict to cells whose id contains SUBSTR (e.g. 'sbc-composed/')",
    )
    add_sweep_options(p, executor_default="inline", trace_default=None)
    add_fanout_options(p)
    p.add_argument("--json", action="store_true", help="emit JSON records")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("lineage", help="print the SBC lineage comparison table")
    p.add_argument("--n", nargs="+", type=int, default=[4, 16, 64])
    p.set_defaults(func=_cmd_lineage)

    # `repro lint` is normally short-circuited in main() before this
    # parser exists (the lint path must not import the crypto/runtime
    # stack); this stub keeps it in --help and covers invocations that
    # put global flags first (`repro --arith python lint ...`).
    p = sub.add_parser(
        "lint",
        help="AST invariant linter (RPR001-RPR007); exits non-zero on findings",
    )
    p.add_argument("args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to the linter (see `repro lint --help`)")
    p.set_defaults(func=_cmd_lint)

    return parser


#: Size flags that count parties, voters or senders: none can be < 1.
_SIZE_FLAGS = ("n", "voters", "senders")


def _size_error(args: argparse.Namespace) -> Optional[str]:
    """The message for the first size flag below 1, or None."""
    for name in _SIZE_FLAGS:
        value = getattr(args, name, None)
        values = value if isinstance(value, list) else [value]
        bad = [v for v in values if v is not None and v < 1]
        if bad:
            return f"--{name} must be >= 1, got {bad[0]}"
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint.cli import main as lint_main

    return lint_main(args.args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw[:1] == ["lint"]:
        # Dispatch before build_parser(): the linter must run on a
        # minimal install, and building the full parser imports the
        # runtime stack for backend/executor choices.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(raw[1:])
    parser = build_parser()
    argv = raw
    args = parser.parse_args(argv)
    error = _size_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.arith is not None:
        from repro.crypto.groups import set_arith_backend

        try:
            set_arith_backend(args.arith)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
