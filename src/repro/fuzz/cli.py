"""The ``fuzz`` CLI subcommand: run / replay / shrink.

* ``fuzz run [spec.json]`` — execute a campaign through the sweep
  fleet (``--workers``, ``--resume``), write ``BENCH_fuzz_<name>.json``
  and print the deterministic signature.  With ``--corpus DIR`` the
  merged findings are compared against the committed corpus;
  ``--fail-on-new`` turns a previously unseen failure key into exit 1
  (the CI gate), ``--emit-corpus`` writes auto-shrunk repros for the
  new keys into the corpus directory.
* ``fuzz replay <case.json>`` — re-run one corpus case verbatim.
  Exit 1 when the recorded failure still **reproduces**, 0 when it no
  longer does, so a repro doubles as a bisection probe.
* ``fuzz shrink <case.json>`` — re-shrink a corpus case (useful after
  oracle changes made further reduction possible).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import TYPE_CHECKING

from repro.sweep.cli import (
    BENCH_DIR_HELP,
    CliError,
    add_fleet_flags,
    add_output_flags,
    run_fleet,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fuzz.campaign import FuzzSpec


def _build_spec(args: argparse.Namespace) -> "FuzzSpec":
    from repro.fuzz.campaign import (
        FuzzSpecError,
        load_fuzz_spec,
        load_fuzz_spec_file,
    )

    overrides = {
        "name": args.name,
        "seed": args.seed,
        "budget": args.budget,
        "shards": args.shards,
        "kinds": args.kinds.split(",") if args.kinds else None,
    }
    try:
        base = (
            load_fuzz_spec_file(args.spec).to_dict() if args.spec
            else {"name": "adhoc"}
        )
        return load_fuzz_spec(
            {**base, **{k: v for k, v in overrides.items() if v is not None}}
        )
    except (OSError, FuzzSpecError) as exc:
        raise CliError(f"cannot build fuzz spec: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.fuzz.campaign import (
        fuzz_sweep_spec,
        merge_fuzz_campaign,
        write_fuzz_manifest,
    )
    from repro.fuzz.corpus import (
        expected_key,
        finding_name,
        known_keys,
        write_corpus_case,
    )

    spec = _build_spec(args)
    if args.emit_corpus and args.no_shrink:
        raise CliError("--emit-corpus needs shrinking; drop --no-shrink", 2)
    if args.emit_corpus and not args.corpus:
        raise CliError("--emit-corpus requires --corpus", 2)
    try:
        known = known_keys(args.corpus) if args.corpus else set()
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), 2) from None

    _, fleet = run_fleet(
        fuzz_sweep_spec(spec), args,
        banner=f"fuzz {spec.name!r}: budget {spec.budget} across "
               f"{spec.shards} shard(s), seed {spec.seed}",
    )
    result = merge_fuzz_campaign(
        spec, fleet, shrink_findings=False if args.no_shrink else None
    )
    path = write_fuzz_manifest(result, out_dir=args.out_dir)
    print(f"wrote {path}")
    print(f"signature {result.signature}")
    print(
        f"cases {result.cases}  outcomes "
        + " ".join(f"{k}={v}" for k, v in sorted(result.outcomes.items()))
    )
    print(f"coverage {len(result.coverage)} key(s)")
    for crash in result.crashes:
        print(
            f"contained crash: shard seed {crash['seed']} "
            f"case {crash['case_index']} [{crash['stage']}] "
            f"{crash['error_type']}: {crash['message']}"
        )

    keys = result.finding_keys()
    new_keys = [key for key in keys if key not in known]
    for finding in result.findings:
        key = tuple(str(k) for k in finding["key"])
        marker = "NEW" if key in set(new_keys) else "known"
        print(f"finding [{marker}] {'/'.join(key)}")
    if not keys:
        print("no findings")

    if args.emit_corpus:
        for doc in result.shrunk:
            key = expected_key(doc)
            if key in known:
                continue
            case_path = os.path.join(args.corpus, f"{finding_name(key)}.json")
            write_corpus_case(case_path, doc)
            print(f"emitted {case_path}")

    if args.json:
        print(json.dumps(result.to_results(), indent=2, sort_keys=True))

    if not result.ok:
        return 1
    if args.fail_on_new and new_keys:
        print(f"FAILED: {len(new_keys)} new finding key(s) not in corpus")
        return 1
    print("OK")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.corpus import replay_file

    try:
        reproduced, verdict, doc = replay_file(args.case)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), 2) from None
    expect = doc["expect"]
    print(f"case {doc.get('name', args.case)!r} ({doc['kind']})")
    print(
        f"expected {expect['outcome']}/{expect['oracle']} "
        f"kinds={','.join(expect['kinds']) or '-'}"
    )
    print(
        f"observed {verdict.outcome}/{verdict.oracle} "
        f"kinds={','.join(verdict.kinds) or '-'}"
    )
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    if reproduced:
        print("REPRODUCED")
        return 1
    print("fixed (no longer reproduces)")
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz.corpus import (
        case_from_doc,
        corpus_doc,
        load_corpus_file,
        write_corpus_case,
    )
    from repro.fuzz.oracles import classify
    from repro.fuzz.shrink import shrink_case, shrink_measure

    try:
        doc = load_corpus_file(args.case)
        case = case_from_doc(doc)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc), 2) from None
    before = shrink_measure(case.payload)
    minimal = shrink_case(case)
    after = shrink_measure(minimal.payload)
    print(f"measure {before} -> {after}")
    if minimal is case:
        print("already minimal (or case passes)")
        return 0
    out = corpus_doc(
        minimal,
        classify(minimal),
        found_by=doc.get("found_by"),
        description=doc.get("description", ""),
    )
    target = args.out or args.case
    write_corpus_case(target, out)
    print(f"wrote {target}")
    return 0


def add_fuzz_parser(sub: argparse._SubParsersAction) -> None:
    from repro.fuzz.lanes import LANE_TABLE

    parser = sub.add_parser(
        "fuzz", help="coverage-guided scenario fuzzing with shrinking"
    )
    fuzz_sub = parser.add_subparsers(dest="fuzz_command", required=True)

    prun = fuzz_sub.add_parser(
        "run", help="execute a fuzz campaign through the sweep fleet"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument(
        "spec", nargs="?", default=None,
        help="path to a fuzz spec JSON file (omit to use flags)",
    )
    prun.add_argument(
        "--name", default=None, help="campaign name (default: adhoc)"
    )
    prun.add_argument("--seed", type=int, default=None, help="campaign seed")
    prun.add_argument(
        "--budget", type=int, default=None, help="total cases across shards"
    )
    prun.add_argument("--shards", type=int, default=None, help="shard count")
    prun.add_argument(
        "--kinds", default=None,
        help=f"comma-separated case kinds ({','.join(LANE_TABLE)})",
    )
    add_fleet_flags(prun)
    prun.add_argument(
        "--no-shrink", action="store_true",
        help="skip automatic shrinking of merged findings",
    )
    add_output_flags(prun, out_dir=BENCH_DIR_HELP.format("fuzz"))
    prun.add_argument(
        "--corpus", default=None,
        help="committed corpus directory to compare findings against",
    )
    prun.add_argument(
        "--fail-on-new", action="store_true",
        help="exit 1 when a finding key is not in the corpus (CI gate)",
    )
    prun.add_argument(
        "--emit-corpus", action="store_true",
        help="write shrunk repros for new finding keys into --corpus",
    )
    prun.add_argument(
        "--json", action="store_true", help="also print the full results JSON"
    )

    preplay = fuzz_sub.add_parser(
        "replay",
        help="re-run one corpus case (exit 1 = reproduced, 0 = fixed)",
    )
    preplay.set_defaults(run=_cmd_replay)
    preplay.add_argument("case", help="path to a corpus case JSON file")
    preplay.add_argument(
        "--json", action="store_true", help="also print the verdict JSON"
    )

    pshrink = fuzz_sub.add_parser(
        "shrink", help="re-shrink a corpus case in place (or to --out)"
    )
    pshrink.set_defaults(run=_cmd_shrink)
    pshrink.add_argument("case", help="path to a corpus case JSON file")
    pshrink.add_argument(
        "--out", default=None,
        help="write the shrunk case here instead of overwriting",
    )
