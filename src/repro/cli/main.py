"""Command-line interface for structural correlation pattern mining.

Six sub-commands are provided::

    scpm mine         --edges g.edges --attributes g.attrs --min-support 100 ...
    scpm update       --edges g.edges --attributes g.attrs \
                      --edge-edits day1.edits --store patterns.sqlite ...
    scpm demo         --profile dblp  [--scale 0.5]
    scpm query        --store patterns.sqlite --vertex 42
    scpm serve        --store patterns.sqlite --port 8765
    scpm verify-store --store patterns.sqlite

``mine`` runs SCPM (or the naive baseline) on a graph read from disk and
prints the ranking tables; ``demo`` generates one of the built-in synthetic
profiles and does the same, which is the quickest way to see the library end
to end without any input files.

``mine --store out.sqlite`` (also on ``demo``) additionally persists the
complete mining run into a pattern store (:mod:`repro.store` — SQLite in
WAL mode), and ``query`` serves a stored run back without re-mining
anything (:mod:`repro.serve`): one pattern by id, patterns containing a
vertex, patterns whose attribute set matches a filter (``--mode all|any``),
or the materialised top-k-by-ε ranking.  Exactly one of the four lookups
must be chosen per invocation.  ``serve`` keeps the same four lookups up
as a threaded HTTP/JSON server (:mod:`repro.serve.http`) until
interrupted — ``GET /patterns/<id>``, ``/patterns?vertex=`` /
``?attributes=&mode=``, ``/top?k=``, plus ``/runs``, ``/healthz`` and
``/metrics`` — so a store mined once can take concurrent read traffic
while later ``mine --store`` runs append to it.  Its degradation knobs
(``--max-readers``, ``--max-inflight``, ``--request-deadline``,
``--lease-timeout``) bound queueing and shed overload as 503s; on
shutdown, ``--shutdown-timeout`` bounds the drain and exits nonzero
when leases had to be force-closed.  ``verify-store`` runs the
integrity checks of :mod:`repro.store.verify` against a store file and
exits 0 (clean), 1 (corrupt/torn) or 2 (usage error) — the post-crash
triage command.

``update`` is the evolving-graph path (:mod:`repro.graph.evolve` +
:class:`repro.correlation.incremental.IncrementalSCPM`): it streams the
base graph, mines it once, applies edit-script files
(``--edge-edits`` / ``--attribute-edits``, ``add u v`` / ``remove u v``
per line) as one batched delta, re-evaluates only the branches whose
chunk footprint the edits touched, and patches the stored run in place
through :meth:`repro.store.writer.PatternStore.apply_delta` — the
patched run is byte-identical to a full re-mine of the edited graph.
By default the base run is saved first and then patched; ``--run``
patches an existing stored run instead.

``mine --streaming`` swaps the in-memory loader for the bounded-memory
streaming ingest (:mod:`repro.graph.streaming`): the files are folded
straight into the sparse bitset index, so the whole
file → stream → (parallel) scheduler → results path never materialises a
hashed ``AttributedGraph``.  ``--engine`` and ``--jobs`` select the
vertex-set engine and the worker-process count on either path; the mined
output is byte-identical regardless of loader, engine or job count.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.ranking import render_case_study_table, render_pattern_table
from repro.correlation.naive import NaiveMiner
from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import SCPM
from repro.datasets.profiles import PROFILES, load_profile
from repro.graph.engine import ENGINES
from repro.graph.io import read_attributed_graph
from repro.graph.statistics import summarize
from repro.graph.streaming import stream_attributed_graph
from repro.quasiclique.search import BFS, DFS


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``scpm`` command."""
    parser = argparse.ArgumentParser(
        prog="scpm",
        description="Structural correlation pattern mining for attributed graphs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine = subparsers.add_parser("mine", help="mine a graph read from disk")
    mine.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    mine.add_argument(
        "--attributes", required=True, help="attribute file (vertex attr1 attr2 ...)"
    )
    mine.add_argument(
        "--streaming",
        action="store_true",
        help=(
            "stream the files straight into the sparse bitset index "
            "(bounded memory, no in-memory graph) — results are identical "
            "to the default in-memory loader"
        ),
    )
    _add_mining_arguments(mine)

    update = subparsers.add_parser(
        "update",
        help="incrementally re-mine an evolving graph and patch its stored run",
    )
    update.add_argument(
        "--edges", required=True, help="base edge-list file (u v per line)"
    )
    update.add_argument(
        "--attributes",
        required=True,
        help="base attribute file (vertex attr1 attr2 ...)",
    )
    update.add_argument(
        "--edge-edits",
        default=None,
        help="edge edit script (`add u v` / `remove u v` per line)",
    )
    update.add_argument(
        "--attribute-edits",
        default=None,
        help="attribute edit script (`add v attr` / `remove v attr` per line)",
    )
    update.add_argument(
        "--run",
        type=int,
        default=None,
        help="patch this stored run in place instead of saving the base "
        "mine as a new run first",
    )
    _add_mining_arguments(update)

    demo = subparsers.add_parser("demo", help="mine a built-in synthetic profile")
    demo.add_argument(
        "--profile",
        default="small-dblp",
        choices=sorted(PROFILES),
        help="synthetic dataset profile to generate",
    )
    demo.add_argument(
        "--scale", type=float, default=1.0, help="size multiplier for the profile"
    )
    _add_mining_arguments(demo, required=False)

    query = subparsers.add_parser(
        "query", help="serve lookups from a stored mining run"
    )
    query.add_argument(
        "--store", required=True, help="pattern store written by mine --store"
    )
    query.add_argument(
        "--run",
        type=int,
        default=None,
        help="stored run id (default: the latest run)",
    )
    query.add_argument(
        "--pattern-id", type=int, default=None, help="fetch one pattern by id"
    )
    query.add_argument(
        "--vertex", default=None, help="patterns whose quasi-clique contains "
        "this vertex (int-like tokens are parsed as integers, like the file "
        "grammar)"
    )
    query.add_argument(
        "--attributes",
        nargs="+",
        default=None,
        help="patterns whose attribute set matches these attributes",
    )
    query.add_argument(
        "--mode",
        choices=("all", "any"),
        default=None,
        help="attribute filter mode: all = set contains every attribute "
        "(default), any = at least one; only valid with --attributes",
    )
    query.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="top-k attribute sets by epsilon from the materialised listing",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a pattern store over HTTP (JSON endpoints)"
    )
    serve.add_argument(
        "--store", required=True, help="pattern store written by mine --store"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port to bind; 0 picks a free ephemeral port "
        "(default: 8765)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="LRU capacity of each pooled reader (default: 256; "
        "0 disables caching)",
    )
    serve.add_argument(
        "--max-readers",
        type=int,
        default=16,
        help="reader-pool concurrency bound; requests past it wait for "
        "a lease and then get 503 (default: 16; 0 = unbounded)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=5.0,
        help="seconds a request waits for a pooled reader before being "
        "shed with 503 + Retry-After (default: 5.0; 0 = wait forever)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound on concurrent data requests; excess is "
        "shed immediately with 503 (default: 64; 0 = unbounded; "
        "/healthz and /metrics are always exempt)",
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=30.0,
        help="per-request wall-clock budget in seconds; requests that "
        "cannot start work in time get 503 (default: 30.0; 0 = none)",
    )
    serve.add_argument(
        "--shutdown-timeout",
        type=float,
        default=10.0,
        help="seconds to drain in-flight requests on shutdown before "
        "force-closing leases and exiting nonzero (default: 10.0; "
        "0 = drain without bound)",
    )

    verify = subparsers.add_parser(
        "verify-store",
        help="check a pattern store for corruption (exit 0 clean, 1 corrupt)",
    )
    verify.add_argument(
        "--store", required=True, help="pattern store file to verify"
    )
    verify.add_argument(
        "--quiet",
        action="store_true",
        help="print only the final verdict line",
    )
    return parser


def _add_mining_arguments(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument("--min-support", type=int, required=required, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--min-size", type=int, default=None)
    parser.add_argument("--min-epsilon", type=float, default=None)
    parser.add_argument("--min-delta", type=float, default=None)
    parser.add_argument("--top-k", type=int, default=None)
    parser.add_argument("--min-attribute-set-size", type=int, default=None)
    parser.add_argument("--max-attribute-set-size", type=int, default=None)
    parser.add_argument(
        "--algorithm",
        choices=("scpm", "naive"),
        default="scpm",
        help="mining algorithm (default: scpm)",
    )
    parser.add_argument(
        "--order", choices=(DFS, BFS), default=DFS, help="search order for SCPM"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="vertex-set engine: dense masks, sparse chunked containers, "
        "or auto selection by graph shape (default: auto, or the profile's)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel scheduler "
        "(-1 = all CPUs; default: 1 = sequential, or the profile's)",
    )
    parser.add_argument(
        "--rows", type=int, default=10, help="rows per ranking table (default: 10)"
    )
    parser.add_argument(
        "--show-patterns",
        action="store_true",
        help="also print the individual structural correlation patterns",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print the work counters (attribute-set pruning, "
        "coverage- and top-k-memo hits/misses, incremental-kernel counter "
        "updates and the per-backend search tally)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="also persist the complete run into this pattern store "
        "(SQLite, WAL; query it later with `scpm query`)",
    )


def _params_from_args(args: argparse.Namespace, defaults: Optional[SCPMParams]) -> SCPMParams:
    """Combine CLI overrides with profile defaults (CLI wins)."""
    def pick(name: str, fallback):
        value = getattr(args, name, None)
        return fallback if value is None else value

    base = defaults or SCPMParams(min_support=1, gamma=0.5, min_size=4)
    return SCPMParams(
        min_support=pick("min_support", base.min_support),
        gamma=pick("gamma", base.gamma),
        min_size=pick("min_size", base.min_size),
        min_epsilon=pick("min_epsilon", base.min_epsilon),
        min_delta=pick("min_delta", base.min_delta),
        top_k=pick("top_k", base.top_k),
        min_attribute_set_size=pick(
            "min_attribute_set_size", base.min_attribute_set_size
        ),
        max_attribute_set_size=pick(
            "max_attribute_set_size", base.max_attribute_set_size
        ),
        order=args.order,
        engine=pick("engine", base.engine),
        n_jobs=pick("jobs", base.n_jobs),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``scpm`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "update":
        return _run_update(args, parser)

    if args.command == "query":
        return _run_query(args, parser)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "verify-store":
        return _run_verify_store(args)

    if args.command == "mine":
        if args.streaming:
            graph = stream_attributed_graph(args.edges, args.attributes)
        else:
            graph = read_attributed_graph(args.edges, args.attributes)
        params = _params_from_args(args, defaults=None)
        title = "input graph"
    else:
        profile = load_profile(args.profile, scale=args.scale)
        graph = profile.build()
        params = _params_from_args(args, defaults=profile.params)
        title = profile.name

    if args.command == "mine" and args.streaming:
        # Streamed handles answer the counters straight off the index; the
        # full summary (components walk) would traverse the whole graph
        # the streaming path deliberately avoids hashing.
        counts = graph
    else:
        counts = summarize(graph)
    print(
        f"graph: {counts.num_vertices} vertices, {counts.num_edges} edges, "
        f"{counts.num_attributes} attributes"
    )
    print(
        f"parameters: sigma_min={params.min_support} gamma={params.gamma} "
        f"min_size={params.min_size} epsilon_min={params.min_epsilon} "
        f"delta_min={params.min_delta} k={params.top_k}"
    )

    miner = (
        SCPM(graph, params)
        if args.algorithm == "scpm"
        else NaiveMiner(graph, params)
    )
    result = miner.mine()
    print(
        f"{result.algorithm}: evaluated {result.counters.attribute_sets_evaluated} "
        f"attribute sets in {result.counters.elapsed_seconds:.2f}s"
    )
    if args.verbose:
        c = result.counters
        if c.attribute_sets_evaluated == 0:
            # Nothing reached min-support: every counter is zero and the
            # kernel/memo block would be noise, so say what happened.
            print("counters: no attribute sets evaluated "
                  "(no attribute reached min-support)")
        else:
            print(
                f"counters: qualified={c.attribute_sets_qualified} "
                f"extended={c.attribute_sets_extended} pruned={c.attribute_sets_pruned}"
            )
            backends = (
                " ".join(
                    f"{label}={count}"
                    for label, count in sorted(c.kernel_backends.items())
                )
                or "none"
            )
            print(
                f"kernel: counter_updates={c.kernel_counter_updates} "
                f"backends[searches]: {backends}  "
                f"coverage memo: hits={c.coverage_memo_hits} "
                f"misses={c.coverage_memo_misses}"
            )
            print(
                f"top-k memo: hits={c.topk_memo_hits} "
                f"misses={c.topk_memo_misses}"
            )
    if args.store:
        from repro.store import save_result

        run_id = save_result(args.store, result, params=params)
        print(
            f"stored run #{run_id} in {args.store} "
            f"({len(result.evaluated)} attribute sets, "
            f"{len(result.patterns)} patterns)"
        )
    print()
    print(render_case_study_table(result, title, n=args.rows))
    if args.show_patterns:
        print()
        print(render_pattern_table(result, title=f"{title} — patterns"))
    return 0


def _run_update(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``scpm update`` subcommand: incremental re-mine + store patch.

    Streams the base graph (the evolvable representation), mines it,
    applies the edit scripts as one batched delta, and patches the
    stored run through ``PatternStore.apply_delta``.  Usage mistakes
    (no edit script, no store, a non-incremental algorithm) exit 2 via
    ``parser.error``; store- and file-level problems print to stderr
    and exit 1.
    """
    from repro.correlation.incremental import IncrementalSCPM
    from repro.errors import ReproError
    from repro.graph.evolve import read_attribute_edits, read_edge_edits
    from repro.store import PatternStore

    if args.store is None:
        parser.error("update requires --store (the run to patch lives there)")
    if args.edge_edits is None and args.attribute_edits is None:
        parser.error(
            "update needs at least one of --edge-edits / --attribute-edits"
        )
    if args.algorithm != "scpm":
        parser.error("update supports only --algorithm scpm")

    try:
        handle = stream_attributed_graph(args.edges, args.attributes)
        params = _params_from_args(args, defaults=None)
        print(
            f"graph: {handle.num_vertices} vertices, {handle.num_edges} "
            f"edges, {handle.num_attributes} attributes"
        )
        miner = IncrementalSCPM(handle, params)
        miner.mine()
        print(
            f"base mine: evaluated "
            f"{miner.result.counters.attribute_sets_evaluated} attribute "
            f"sets in {miner.result.counters.elapsed_seconds:.2f}s"
        )
        edge_edits = (
            read_edge_edits(args.edge_edits) if args.edge_edits else ()
        )
        attribute_edits = (
            read_attribute_edits(args.attribute_edits)
            if args.attribute_edits
            else ()
        )
        with PatternStore(args.store) as store:
            if args.run is None:
                run_id = store.save(miner.result, params=params)
                print(f"stored base run #{run_id} in {args.store}")
            else:
                run_id = args.run
            miner.update(
                edge_edits=edge_edits, attribute_edits=attribute_edits
            )
            store.apply_delta(run_id, miner.result, params=params)
        stats = miner.last_update_stats
        print(
            f"applied {len(edge_edits)} edge edit(s), "
            f"{len(attribute_edits)} attribute edit(s) touching "
            f"{stats.touched_chunks} chunk(s)"
        )
        print(
            f"delta: roots {stats.roots_reused} reused / "
            f"{stats.roots_reevaluated} re-evaluated, branches "
            f"{stats.branches_reused} reused / {stats.branches_rerun} "
            f"rerun, {stats.records_patched} record(s) patched, "
            f"{stats.memo_evicted} memo entr(ies) evicted "
            f"in {stats.elapsed_seconds:.2f}s"
        )
        print(
            f"patched run #{run_id} in {args.store} "
            f"({len(miner.result.evaluated)} attribute sets, "
            f"{len(miner.result.patterns)} patterns)"
        )
    except (ReproError, OSError) as error:
        print(f"scpm update: error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_query(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``scpm query`` subcommand: serve one lookup from a stored run.

    Usage-level mistakes (no lookup chosen, several at once, ``--mode``
    without ``--attributes``) exit 2 through ``parser.error`` like any
    other argparse problem; store-level problems (missing file, unknown
    run or pattern id) print to stderr and exit 1.
    """
    from repro.errors import StoreError
    from repro.graph.io import parse_vertex_token
    from repro.serve import PatternStoreReader

    chosen = [
        name
        for name, value in (
            ("--pattern-id", args.pattern_id),
            ("--vertex", args.vertex),
            ("--attributes", args.attributes),
            ("--top-k", args.top_k),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        parser.error(
            "query needs exactly one of --pattern-id / --vertex / "
            "--attributes / --top-k"
            + (f" (got {', '.join(chosen)})" if chosen else "")
        )
    if args.mode is not None and args.attributes is None:
        parser.error("--mode is only valid together with --attributes")

    try:
        with PatternStoreReader(args.store) as reader:
            if args.pattern_id is not None:
                stored = reader.get_pattern(args.pattern_id)
                print(
                    f"pattern {stored.pattern_id} "
                    f"(run {stored.run_id}, set {stored.set_id}): "
                    f"{stored.pattern}"
                )
            elif args.vertex is not None:
                vertex = parse_vertex_token(args.vertex)
                matches = reader.patterns_with_vertex(vertex)
                if not matches and vertex != args.vertex:
                    # A store mined programmatically may key this vertex
                    # as the raw string; try the unparsed form too.
                    matches = reader.patterns_with_vertex(args.vertex)
                print(f"{len(matches)} pattern(s) contain vertex {args.vertex}")
                for stored in matches:
                    print(f"pattern {stored.pattern_id}: {stored.pattern}")
            elif args.attributes is not None:
                mode = args.mode or "all"
                matches = reader.patterns_with_attributes(
                    args.attributes, mode=mode
                )
                print(
                    f"{len(matches)} pattern(s) match "
                    f"{mode}({', '.join(args.attributes)})"
                )
                for stored in matches:
                    print(f"pattern {stored.pattern_id}: {stored.pattern}")
            else:
                entries = reader.top_k(args.top_k, run_id=args.run)
                print(f"{'rank':>5} {'epsilon':>9} {'support':>8}  label")
                for entry in entries:
                    print(
                        f"{entry.rank:>5} {entry.epsilon:>9.4f} "
                        f"{entry.support:>8}  {entry.label}"
                    )
    except StoreError as error:
        print(f"scpm query: error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_verify_store(args: argparse.Namespace) -> int:
    """The ``scpm verify-store`` subcommand: integrity check, exit 0/1/2.

    Exit 0 when every check passes, 1 when any fails (corrupt, torn,
    wrong schema version, not a store), 2 for usage errors (the path is
    a directory or unreadable at the OS level).
    """
    from repro.store.verify import verify_store

    try:
        report = verify_store(args.store)
    except OSError as error:
        print(f"scpm verify-store: error: {error}", file=sys.stderr)
        return 2
    lines = report.lines()
    if args.quiet:
        lines = lines[-1:]
    stream = sys.stdout if report.ok else sys.stderr
    for line in lines:
        print(line, file=stream)
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    """The ``scpm serve`` subcommand: HTTP serving until interrupted.

    Store-level problems (missing file, not a store) and bind failures
    (port in use, bad interface) print to stderr and exit 1; Ctrl-C
    shuts down gracefully — in-flight requests drain, readers close —
    and exits 0.  When the drain outlives ``--shutdown-timeout``, leases
    are force-closed (stuck queries interrupted) and the exit code is 1:
    a supervisor can tell a clean drain from an abandoned one.
    """
    from repro.errors import StoreError
    from repro.serve.http import create_server

    def unbounded(value):  # CLI convention: 0 (or less) = no limit
        return None if value is None or value <= 0 else value

    try:
        server = create_server(
            args.store,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            max_readers=unbounded(args.max_readers),
            lease_timeout=unbounded(args.lease_timeout),
            max_inflight=unbounded(args.max_inflight),
            request_deadline=unbounded(args.request_deadline),
        )
    except StoreError as error:
        print(f"scpm serve: error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"scpm serve: error: cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    print(f"serving pattern store {args.store} on {server.url}")
    print("endpoints: /patterns/<id>  /patterns?vertex=|attributes=&mode=  "
          "/top?k=  /runs  /healthz  /metrics")
    clean = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight requests) ...")
    finally:
        clean = server.stop(timeout=unbounded(args.shutdown_timeout))
    if not clean:
        print(
            "scpm serve: shutdown timeout exceeded — force-closed "
            "in-flight leases",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
