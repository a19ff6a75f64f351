"""Command-line front end for the decision-serving layer.

Tune once per hardware band, answer every runtime query from the store::

    # pre-populate shards for a fleet of machine presets
    python -m repro.serve.cli warm --fleet shaheen2:4x4,stampede2:2x8 \
        --colls bcast,allreduce --workers 4 --store .decisions

    # answer a batched query file (JSON list or JSONL; '-' = stdin)
    python -m repro.serve.cli serve --store .decisions --queries q.json

    # fold one store into another, then compact the shards
    python -m repro.serve.cli merge --into .decisions .decisions-other --compact

Every served answer carries a provenance stamp (``exact`` / ``nearest``
/ ``interpolated`` / ``default``) and a guideline verdict; ``--strict``
refuses guideline-violating answers (exit code 3) instead of serving
them flagged.  A query with no valid answer (unparsable, NaN or negative
nbytes, a commsize that is not a positive integer) is reported with its
place in the file on stderr, and ``serve`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.obs.cli import parse_nbytes
from repro.serve.service import DecisionService, Query, QueryError
from repro.serve.store import DecisionStore
from repro.serve.warm import WARM_SPACES, parse_fleet, warm_store

__all__ = ["main"]


def _parse_query(doc: dict) -> Query:
    """One query from its JSON form (machine preset or raw band digest).

    Values pass through as given: the service judges them.
    """
    band = doc.get("band")
    machine = None
    if not band and doc.get("machine"):
        machine = parse_fleet(str(doc["machine"]))[0]
    nbytes = doc["nbytes"]
    if isinstance(nbytes, str):
        nbytes = parse_nbytes(nbytes)
    return Query(
        coll=doc["coll"],
        nbytes=nbytes,
        commsize=doc.get("commsize", 0),
        machine=machine,
        band=band,
    )


def _load_queries(path: str) -> tuple[list[str], list[Query]]:
    """The queries of a file, each with where it stands in it ("line 3"
    of a JSONL file, "query 3" of a JSON list); a ``ValueError`` that
    says where for the first one that does not parse."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    if text.strip().startswith("["):
        docs = [(f"query {i}", doc)
                for i, doc in enumerate(json.loads(text), 1)]
    else:  # JSONL
        docs = []
        for i, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    docs.append((f"line {i}", json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"line {i}: {exc}") from exc
    places, queries = [], []
    for where, doc in docs:
        try:
            queries.append(_parse_query(doc))
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        places.append(where)
    return places, queries


# -- warm --------------------------------------------------------------------------


def cmd_warm(args) -> int:
    from repro.tuning.cache import MeasurementCache

    fleet = parse_fleet(args.fleet)
    store = DecisionStore(args.store)
    colls = tuple(c.strip() for c in args.colls.split(",") if c.strip())
    cache = MeasurementCache(args.cache) if args.cache else None
    summaries = warm_store(
        fleet, store, colls=colls, method=args.method,
        space=WARM_SPACES[args.space], workers=args.workers, cache=cache,
    )
    for s in summaries:
        print(
            f"warmed {s['machine']:<24} band={s['band'][:12]} "
            f"records={s['records']} searches={s['searches']} "
            f"wall={s['wall_s']:.2f}s"
        )
    print(f"store {args.store}: {store.stats()['records']} decisions in "
          f"{store.stats()['shards']} shard(s)")
    return 0


# -- serve -------------------------------------------------------------------------


def cmd_serve(args) -> int:
    store = DecisionStore(args.store)
    service = DecisionService(store, strict=args.strict)
    try:
        places, queries = _load_queries(args.queries)
    except ValueError as exc:
        print(f"bad query in {args.queries}: {exc}", file=sys.stderr)
        return 2
    if not queries:
        print("no queries", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        decisions = service.decide_batch(queries)
    except QueryError as exc:
        print(f"bad query in {args.queries}: {places[exc.index]}: {exc}",
              file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    doc = {
        "queries": len(queries),
        "wall_s": wall,
        "qps": len(queries) / wall if wall > 0 else float("inf"),
        "stats": service.stats(),
        "decisions": [d.to_doc() for d in decisions],
    }
    out = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(out)
    if args.json and not args.out:
        print(out)
    else:
        stats = doc["stats"]
        print(f"served {len(queries)} queries in {wall:.4f}s "
              f"({doc['qps']:.0f} qps)")
        print(f"  provenance: {stats['decisions']}")
        print(f"  violations flagged: {stats['violations']}  "
              f"refused: {stats['refused']}")
        if args.out:
            print(f"  decisions written to {args.out}")
    if args.strict and any(d.refused for d in decisions):
        return 3
    return 0


# -- merge -------------------------------------------------------------------------


def cmd_merge(args) -> int:
    into = DecisionStore(args.into)
    total = 0
    for src in args.sources:
        absorbed = into.merge_from(DecisionStore(src))
        print(f"merged {src}: {absorbed} record(s) absorbed")
        total += absorbed
    if args.compact:
        stats = into.compact()
        print(f"compacted {stats['shards']} shard(s): "
              f"{stats['records']} records, "
              f"{stats['removed_segments']} segment(s) removed")
    print(f"store {args.into}: {into.stats()['records']} decisions")
    return 0


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_warm = sub.add_parser("warm", help="pre-populate shards from a fleet")
    p_warm.add_argument("--fleet", required=True,
                        help="comma list of <preset>[:<nodes>x<ppn>]")
    p_warm.add_argument("--store", required=True,
                        help="decision-store directory")
    p_warm.add_argument("--colls", default="bcast,allreduce")
    p_warm.add_argument("--method", default="task+h",
                        choices=("exhaustive", "exhaustive+h", "task",
                                 "task+h"))
    p_warm.add_argument("--space", default="small",
                        choices=sorted(WARM_SPACES))
    p_warm.add_argument("--workers", type=int, default=0)
    p_warm.add_argument("--cache", default=None,
                        help="persistent measurement-cache directory")
    p_warm.set_defaults(fn=cmd_warm)

    p_serve = sub.add_parser("serve", help="answer a batched query file")
    p_serve.add_argument("--store", required=True)
    p_serve.add_argument("--queries", required=True,
                         help="JSON list / JSONL of queries ('-' = stdin)")
    p_serve.add_argument("--strict", action="store_true",
                         help="refuse guideline-violating answers (exit 3)")
    p_serve.add_argument("--json", action="store_true",
                         help="print the full decision document")
    p_serve.add_argument("--out", default=None,
                         help="write the decision document to this file")
    p_serve.set_defaults(fn=cmd_serve)

    p_merge = sub.add_parser("merge", help="fold stores together")
    p_merge.add_argument("--into", required=True)
    p_merge.add_argument("sources", nargs="+")
    p_merge.add_argument("--compact", action="store_true",
                         help="compact shards after merging")
    p_merge.set_defaults(fn=cmd_merge)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
