"""``python -m repro.serve`` — run the evaluation server over a TCP socket.

Example::

    python -m repro.serve --store .repro-artifacts --port 7341 \
        --buckets 4,8,16,32 --max-wait-ms 5 --workers 2

Checkpoints are addressed by training-hash prefix (see
``python -m repro.experiments list``); ``--preload`` pins models at startup
so their plans are traced before the first request.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..experiments.store import ArtifactStore
from ..obs import profiler as _profiler, trace as _trace
from .server import RobustnessServer, start_socket_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Dynamic-batching robustness evaluation server.",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="artifact store root (default: $REPRO_ARTIFACTS or .repro-artifacts)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7341, help="0 picks a free port")
    parser.add_argument(
        "--buckets",
        default="4,8,16,32",
        help="comma-separated batch sizes every batch is padded to",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=5.0,
        help="max time a partial batch waits for co-riders before flushing padded",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission bound on queue depth (examples + jobs); excess work "
        "is shed with an 'overloaded' error (default: unbounded)",
    )
    parser.add_argument(
        "--model-capacity", type=int, default=4, help="LRU bound on pinned checkpoints"
    )
    parser.add_argument(
        "--preload",
        default=None,
        help="comma-separated training-hash prefixes to resolve at startup",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append span/metrics JSONL events to PATH (see python -m repro.obs)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="per-op executor profiling (surfaced on the stats endpoint)",
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    if args.trace:
        _trace.enable(path=args.trace)
    if args.profile:
        _profiler.enable()
    store = ArtifactStore(args.store)
    server = RobustnessServer(
        store=store,
        buckets=[int(size) for size in args.buckets.split(",") if size.strip()],
        max_wait_ms=args.max_wait_ms,
        workers=args.workers,
        model_capacity=args.model_capacity,
        max_queue=args.max_queue,
    )
    server.start()
    try:
        if args.preload:
            for prefix in args.preload.split(","):
                prefix = prefix.strip()
                if prefix:
                    entry = server.pool.get(prefix)
                    print(f"preloaded {entry.model_id}", flush=True)
        socket_server = await start_socket_server(server, args.host, args.port)
        host, port = socket_server.sockets[0].getsockname()[:2]
        print(f"repro.serve listening on {host}:{port} (store: {store.root})", flush=True)
        async with socket_server:
            await socket_server.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        server.stop()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
