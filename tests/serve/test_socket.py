"""End-to-end socket test: concurrent mixed clients, identity, allocations.

The acceptance scenario for the serving layer: a running server handles
three concurrent clients issuing mixed classify/attack traffic over the
JSON-over-socket transport, every result is byte-identical to the offline
compiled engine, and — after the warmup pass has traced every bucket — the
steady-state load allocates **zero** new plan-pool buffers.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.attacks.engine import AttackSpec
from repro.compile import compile_model
from repro.serve import (
    RobustnessServer,
    SocketServeClient,
    start_socket_server,
)

BUCKETS = (4, 8, 16)
ATTACK_SPEC = AttackSpec("fgsm", dict(eps=8 / 255))


@pytest.fixture()
def running_server(small_cnn):
    """A started RobustnessServer exposed on an OS-assigned TCP port.

    One worker makes the zero-allocation assertion deterministic: every
    (bucket, program) pair the steady-state load can touch is provably
    traced by the warmup pass, because the same worker executes both.
    Client-side concurrency (and batching across clients) is unaffected.
    """
    small_cnn.eval()
    server = RobustnessServer(buckets=BUCKETS, max_wait_ms=2.0, workers=1)
    server.register("cnn", small_cnn)
    server.start()
    ready = threading.Event()
    box = {}

    def run_loop():
        async def main():
            socket_server = await start_socket_server(server, "127.0.0.1", 0)
            box["port"] = socket_server.sockets[0].getsockname()[1]
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            async with socket_server:
                await socket_server.serve_forever()

        try:
            asyncio.run(main())
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0), "socket server failed to start"
    yield server, box["port"]
    box["loop"].call_soon_threadsafe(
        lambda: [task.cancel() for task in asyncio.all_tasks(box["loop"])]
    )
    thread.join(timeout=5.0)
    server.stop()


def test_concurrent_mixed_clients_end_to_end(running_server, small_cnn, tiny_dataset):
    server, port = running_server
    images_pool = tiny_dataset.x_test
    labels_pool = tiny_dataset.y_test
    image_shape = tuple(images_pool.shape[1:])

    # Offline comparator: same module, same bucket-warmed compiled path.
    compiled = compile_model(small_cnn, np.zeros((BUCKETS[-1],) + image_shape))
    compiled.warm(np.zeros((b,) + image_shape) for b in BUCKETS)

    def offline_classify(images):
        fit = [b for b in BUCKETS if len(images) <= b][0]
        padded = np.zeros((fit,) + image_shape, dtype=images.dtype)
        padded[: len(images)] = images
        return compiled.predict(padded)[: len(images)].copy()

    def offline_attack(images, labels):
        return ATTACK_SPEC.build(small_cnn).use_compiled(compiled).attack(images, labels)

    # Warmup: drive every bucket signature once so all plans exist.
    warm_client = SocketServeClient("127.0.0.1", port)
    warm_client.classify("cnn", images_pool[: BUCKETS[-1]])
    warm_client.attack(
        "cnn", ATTACK_SPEC, images_pool[: BUCKETS[-1]], labels_pool[: BUCKETS[-1]]
    )
    for bucket in BUCKETS:
        warm_client.classify("cnn", images_pool[:bucket])
        warm_client.attack(
            "cnn", ATTACK_SPEC, images_pool[:bucket], labels_pool[:bucket]
        )
    warm_client.close()
    allocations_after_warmup = server.pool.pool_allocations()
    assert allocations_after_warmup > 0  # plans were actually built

    # Steady state: 3 concurrent clients, mixed kinds, varied sizes.  The
    # offline model is not thread-safe (its outputs live in plan-owned
    # buffers), so every expected result is computed here, serially, before
    # the client threads start.
    rng = np.random.default_rng(42)
    plans = []
    for client_index in range(3):
        workload = []
        for request_index in range(6):
            n = int(rng.integers(1, BUCKETS[-1] + 1))
            picks = rng.integers(0, len(images_pool), size=n)
            kind = "classify" if (client_index + request_index) % 2 else "attack"
            images, labels = images_pool[picks].copy(), labels_pool[picks].copy()
            if kind == "classify":
                want = offline_classify(images)
            else:
                want = offline_attack(images, labels)
            workload.append((kind, images, labels, want))
        plans.append(workload)

    failures = []

    def run_client(workload):
        try:
            with SocketServeClient("127.0.0.1", port) as client:
                for kind, images, labels, want in workload:
                    if kind == "classify":
                        got = client.classify("cnn", images)["predictions"]
                    else:
                        got = client.attack("cnn", ATTACK_SPEC, images, labels)[
                            "adversarial"
                        ]
                    if got.tobytes() != want.tobytes():
                        failures.append(f"{kind} result diverged from offline engine")
        except Exception as error:  # surfaced after join
            failures.append(repr(error))

    threads = [threading.Thread(target=run_client, args=(plan,)) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)

    assert not failures, failures
    # Zero steady-state allocations: the load after warmup hit only
    # already-traced bucket signatures.
    assert server.pool.pool_allocations() == allocations_after_warmup

    # The stats endpoint reflects the run.
    stats_client = SocketServeClient("127.0.0.1", port)
    stats = stats_client.stats()
    stats_client.close()
    assert stats["server"]["batches"] > 0
    assert stats["server"]["examples"] > 0
    assert {"p50", "p95", "p99"} <= set(stats["server"]["latency_ms"])
    cache = stats["models"]["cnn"]["cache"]
    assert cache["hits"] > 0 and cache["build_failures"] == 0


def test_response_ids_stream_out_of_order(running_server, tiny_dataset):
    """Two requests on one connection may answer in completion order."""
    import json
    import socket as socket_module

    from repro.serve.protocol import decode_payload, encode_payload

    _, port = running_server
    images = tiny_dataset.x_test[:2]
    sock = socket_module.create_connection(("127.0.0.1", port), timeout=60.0)
    stream = sock.makefile("rwb")
    for request_id in ("a", "b"):
        stream.write(
            json.dumps(
                encode_payload(
                    {"id": request_id, "kind": "classify", "model": "cnn", "images": images}
                )
            ).encode()
            + b"\n"
        )
    stream.flush()
    responses = {}
    while len(responses) < 2:
        line = stream.readline()
        assert line, "connection closed early"
        response = json.loads(line)
        responses[response["id"]] = response
    stream.close()
    sock.close()
    assert set(responses) == {"a", "b"}
    for response in responses.values():
        assert response["ok"], response
        assert len(decode_payload(response["result"])["predictions"]) == 2
