"""The ``repro`` command line: list, run, batch and report registered scenarios.

Replaces the per-figure benchmark scripts as the entry point for reproducing the
paper's evaluation::

    python -m repro list                      # what can I run?
    python -m repro run fig7_tempo_validation # one scenario, table on stdout
    python -m repro batch --smoke             # fast subset, shared cache + store
    python -m repro batch --all               # everything, serial
    python -m repro batch --all --backend processes --jobs 4   # GIL-free workers
    python -m repro worker --connect HOST:7621 # join a cluster as a worker
    python -m repro report                    # what is in the result store?

Results are persisted to a content-addressed store (``--store``, default
``$REPRO_STORE`` or ``./.repro_store``); re-running an unchanged scenario is a
store hit that executes no engine pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.report import format_table, save_result_text
from repro.exec import BACKEND_NAMES
from repro.scenarios import (
    REGISTRY,
    BatchRunner,
    ResultStore,
    default_store_root,
)
from repro.scenarios.bench import (
    DEFAULT_BENCH_PATH,
    bench_scenarios,
    check_speedups,
    write_bench_report,
)


def _positive_int(text: str) -> int:
    """argparse type for worker counts: reject 0/negative/garbage with status 2.

    Validating here (instead of letting ``BatchRunner`` raise) turns
    ``repro batch --jobs 0`` from a raw ``ValueError`` traceback into a clean
    usage error.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts that may be zero (e.g. ``--warmup``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_params(pairs: Sequence[str]) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: --param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = value
    return params


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    if getattr(args, "no_store", False):
        return None
    root = getattr(args, "store", None)
    return ResultStore(Path(root) if root else default_store_root())


def _select_names(args: argparse.Namespace) -> List[str]:
    selectors = [
        bool(args.names),
        getattr(args, "all_scenarios", False),
        getattr(args, "smoke", False),
    ]
    if sum(selectors) > 1:
        raise SystemExit(
            "error: give scenario names, --all or --smoke -- not a combination"
        )
    if args.names:
        return list(args.names)
    if getattr(args, "smoke", False):
        return REGISTRY.names(tag="smoke")
    return REGISTRY.names()


# -- subcommands -----------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for scenario in REGISTRY:
        spec = scenario.spec
        if args.tag and args.tag not in spec.tags:
            continue
        rows.append(
            (
                spec.name,
                spec.figure or "-",
                spec.title,
                ",".join(spec.tags) or "-",
            )
        )
    print(format_table(["scenario", "figure", "title", "tags"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    result = REGISTRY.run(
        args.name,
        params=_parse_params(args.param),
        store=store,
        force=args.force,
    )
    print(f"=== {result.name} ===")
    print(result.table)
    origin = "result store" if result.from_store else f"run in {result.elapsed_s:.2f} s"
    print(f"\n[{result.fingerprint[:16]}] {origin}", file=sys.stderr)
    if args.save_results:
        save_result_text(
            Path(args.save_results) / f"{result.name}.txt", result.table, echo=False
        )
    if args.check:
        REGISTRY.verify(args.name, result)
        print(f"checks passed for {args.name}", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    names = _select_names(args)
    if not names:
        print("no scenarios selected", file=sys.stderr)
        return 1
    store = _store_from_args(args)
    runner = BatchRunner(
        store=store, backend=args.backend, jobs=args.jobs, force=args.force
    )
    report = runner.run(names)
    print(report.summary_table())
    failures = 0
    for item in report.items:
        if not item.ok:
            print(f"ERROR {item.name}: {item.error}", file=sys.stderr)
            failures += 1
        elif args.check and not item.from_store:
            try:
                REGISTRY.verify(item.name, item.result)
            except AssertionError as exc:
                print(f"CHECK FAILED {item.name}: {exc}", file=sys.stderr)
                failures += 1
    if args.save_results:
        for item in report.items:
            if item.ok:
                save_result_text(
                    Path(args.save_results) / f"{item.name}.txt",
                    item.result.table,
                    echo=False,
                )
    return 1 if failures else 0


def _parse_fail_below(pairs: Sequence[str]) -> Dict[str, float]:
    thresholds: Dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(
                f"error: --fail-below-ref expects SCENARIO=FACTOR, got {pair!r}"
            )
        name, factor = pair.split("=", 1)
        try:
            thresholds[name] = float(factor)
        except ValueError:
            raise SystemExit(
                f"error: --fail-below-ref factor must be a number, got {factor!r}"
            ) from None
    return thresholds


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exec.cluster import parse_address, run_worker

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        raise SystemExit(f"error: --connect {exc}") from None
    return run_worker(
        host,
        port,
        once=args.once,
        connect_timeout_s=args.connect_timeout_s,
        quiet=args.quiet,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    names = _select_names(args)
    if not names:
        print("no scenarios selected", file=sys.stderr)
        return 1
    ref_thresholds = _parse_fail_below(args.fail_below_ref)
    if ref_thresholds and args.dtype != "float32":
        raise SystemExit(
            "error: --fail-below-ref needs a non-reference mode; add "
            "--dtype float32"
        )
    payload = bench_scenarios(
        names,
        repeats=args.repeats,
        warmup=args.warmup,
        params=_parse_params(args.param),
        dtype=args.dtype,
    )
    rows = []
    for name in names:
        entry = payload["scenarios"][name]
        vec = entry["vectorized"]
        ref = entry.get("reference")
        if ref:
            vs_ref = f"{entry['speedup_vs_reference_median']:.2f}x"
        elif entry.get("analytic_only"):
            vs_ref = "analytic"
        else:
            vs_ref = "-"
        fractions = vec.get("stage_fractions", {})
        stage_text = " ".join(
            f"{stage}={fractions[stage]:.0%}"
            for stage in ("rng", "forward", "quantize", "metrics")
            if stage in fractions
        )
        rows.append(
            (
                name,
                f"{vec['median_s'] * 1e3:.1f}",
                f"{vec['p90_s'] * 1e3:.1f}",
                vec["engine_passes"],
                vs_ref,
                stage_text or "-",
            )
        )
    print(
        format_table(
            ["scenario", "median (ms)", "p90 (ms)", "passes", "vs ref", "stages"],
            rows,
        )
    )
    target = write_bench_report(payload, args.output)
    print(f"\nwrote {target}", file=sys.stderr)
    failures = check_speedups(payload, ref_thresholds)
    for failure in failures:
        print(f"SPEEDUP CHECK FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _artifact_payload(entry: Dict[str, object]) -> Dict[str, object]:
    """The full stored JSON artifact behind one store entry (metrics included)."""
    payload = json.loads(Path(entry["path"]).read_text())
    payload["path"] = str(entry["path"])
    return payload


def _cmd_report(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    if store is None:
        print("report requires a store", file=sys.stderr)
        return 1
    as_json = args.format == "json"
    entries = store.entries()
    if not entries and not as_json:
        print(f"result store {store.root} is empty")
        return 0
    if args.names:
        wanted = set(args.names)
        missing = wanted - {e["name"] for e in entries}
        if missing:
            print(f"not in store: {', '.join(sorted(missing))}", file=sys.stderr)
            return 1
        shown = set()
        selected = []
        for entry in entries:  # newest first; show each requested name once
            if entry["name"] in wanted and entry["name"] not in shown:
                shown.add(entry["name"])
                selected.append(entry)
        if as_json:
            # Full artifacts (table + metrics + params), machine-readable.
            print(json.dumps([_artifact_payload(e) for e in selected], indent=2,
                             sort_keys=True))
            return 0
        for entry in selected:
            print(f"=== {entry['name']} ===")
            print(entry["table"])
            print()
        return 0
    if as_json:
        records = [
            {
                "name": e["name"],
                "fingerprint": e["fingerprint"],
                "created_at": e["created_at"],
                "elapsed_s": e["elapsed_s"],
                "params": e["params"],
                "path": str(e["path"]),
            }
            for e in entries
        ]
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            e["name"],
            e["fingerprint"][:16],
            e["created_at"] or "-",
            f"{e['elapsed_s']:.2f}",
        )
        for e in entries
    ]
    print(format_table(["scenario", "fingerprint", "created (UTC)", "run time (s)"], rows))
    return 0


# -- lint ------------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here: the analysis subsystem is pure stdlib-ast tooling and the
    # run/batch paths should not pay for it.
    from repro.analysis import LINT_SCHEMA, all_rules, lint_paths
    from repro.analysis.findings import Finding
    from repro.analysis.runner import PARSE_RULE_ID
    from repro.analysis.walker import default_lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    paths = [Path(p) for p in args.paths] or default_lint_paths()
    try:
        report = lint_paths(paths, rule_filter=args.rule or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = list(report.findings)
    parse_findings = [
        Finding(
            rule_id=PARSE_RULE_ID, file=f.path, line=f.line, message=f.message
        )
        for f in report.parse_failures
    ]

    if args.format == "json":
        payload = {
            "schema": LINT_SCHEMA,
            "rules": list(report.rules_run),
            "modules": len(report.modules),
            "counts": report.counts,
            "findings": [f.to_payload() for f in findings],
            "parse_failures": [f.to_payload() for f in parse_findings],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in parse_findings + findings:
            print(finding.render())
        summary = (
            f"{len(report.modules)} module(s), rules {', '.join(report.rules_run)}: "
            f"{len(findings)} finding(s)"
        )
        if parse_findings:
            summary += f", {len(parse_findings)} unparseable file(s)"
        print(summary)

    if parse_findings:
        return 2
    return 1 if findings else 0


# -- argument parsing ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's figure/table experiments from the scenario registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--tag", help="only scenarios carrying this tag")
    p_list.set_defaults(func=_cmd_list)

    def add_store_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", metavar="DIR",
                       help=f"result-store directory (default: $REPRO_STORE or {default_store_root()})")
        p.add_argument("--no-store", action="store_true",
                       help="do not read or write the persistent result store")
        p.add_argument("--force", action="store_true",
                       help="re-run even when the store has a matching artifact")
        p.add_argument("--save-results", metavar="DIR",
                       help="additionally write <scenario>.txt table files to DIR")

    p_run = sub.add_parser("run", help="run one scenario and print its table")
    p_run.add_argument("name", help="registered scenario name (see `repro list`)")
    p_run.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario parameter (repeatable)")
    p_run.add_argument("--check", action="store_true",
                       help="run the scenario's qualitative shape checks")
    add_store_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run many scenarios with a shared cache")
    p_batch.add_argument("names", nargs="*", help="scenario names (default: all)")
    p_batch.add_argument("--all", action="store_true", dest="all_scenarios",
                         help="run every registered scenario (the default when no names given)")
    p_batch.add_argument("--smoke", action="store_true",
                         help="run the fast smoke-tagged subset")
    p_batch.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                         help="number of workers of a parallel --backend "
                              "(default: all cores); it never picks a backend")
    p_batch.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                         help="execution backend for fresh scenarios: 'serial' "
                              "(the default), 'processes' (GIL-free forked "
                              "workers) or 'cluster' (TCP workers started with "
                              "`repro worker`; see README). All backends are "
                              "byte-identical to a serial run"),
    p_batch.add_argument("--check", action="store_true",
                         help="run shape checks on every freshly computed scenario")
    add_store_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_bench = sub.add_parser(
        "bench",
        help="time scenarios (warmup + repeats) and write a JSON bench report",
    )
    p_bench.add_argument("names", nargs="*", help="scenario names (default: all)")
    p_bench.add_argument("--all", action="store_true", dest="all_scenarios",
                         help="benchmark every registered scenario")
    p_bench.add_argument("--smoke", action="store_true",
                         help="benchmark the fast smoke-tagged subset")
    p_bench.add_argument("--repeats", type=_positive_int, default=3, metavar="N",
                         help="timed repeats per scenario (default: 3)")
    p_bench.add_argument("--warmup", type=_non_negative_int, default=1, metavar="N",
                         help="untimed warmup runs per scenario (default: 1)")
    p_bench.add_argument("--dtype", choices=("float64", "float32"), default=None,
                         help="time the headline runs under this REPRO_DTYPE "
                              "mode (default: ambient environment; float32 "
                              "also times the float64 reference and records "
                              "speedup_vs_reference_median)")
    p_bench.add_argument("--fail-below-ref", action="append", default=[],
                         metavar="SCENARIO=FACTOR",
                         help="exit non-zero when SCENARIO's speedup over the "
                              "bit-exact reference mode is below FACTOR "
                              "(repeatable; requires --dtype float32)")
    p_bench.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                         help="override a scenario parameter for every "
                              "benchmarked scenario (repeatable)")
    p_bench.add_argument("--output", default=DEFAULT_BENCH_PATH, metavar="PATH",
                         help=f"report path (default: {DEFAULT_BENCH_PATH}, an "
                              "untracked scratch file; name a BENCH_*.json "
                              "explicitly to record a committed report)")
    p_bench.set_defaults(func=_cmd_bench)

    p_worker = sub.add_parser(
        "worker",
        help="join a cluster: execute task chunks for a coordinator "
             "(started by any run/batch using --backend cluster)",
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator endpoint (the cluster backend's "
                               "host/port, default port 7621)")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after one coordinator session instead of "
                               "reconnecting for the next one")
    p_worker.add_argument("--connect-timeout-s", type=float, default=30.0,
                          metavar="S",
                          help="give up when no coordinator appears within S "
                               "seconds (default: 30)")
    p_worker.add_argument("--quiet", action="store_true",
                          help="suppress per-session log lines on stderr")
    p_worker.set_defaults(func=_cmd_worker, no_store=False)

    p_report = sub.add_parser("report", help="inspect the persistent result store")
    p_report.add_argument("names", nargs="*",
                          help="print the stored tables of these scenarios")
    p_report.add_argument("--store", metavar="DIR",
                          help="result-store directory (default: $REPRO_STORE or ./.repro_store)")
    p_report.add_argument("--format", choices=("table", "json"), default="table",
                          help="output format: human-readable table (default) or "
                               "JSON (entry metadata; with names, the full "
                               "stored artifacts including metrics)")
    p_report.set_defaults(func=_cmd_report, no_store=False)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis of the reproducibility contracts (R001-R005)",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the repro "
                             "package plus the repo's tests/ tree)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    p_lint.add_argument("--rule", action="append", default=[], metavar="RULE_ID",
                        help="run only this rule (repeatable; default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        # Registry lookups raise KeyError with an actionable message.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Out-of-range scenario parameters (``trials=0``) and bad values.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
