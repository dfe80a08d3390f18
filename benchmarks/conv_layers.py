#!/usr/bin/env python3
"""Per-layer timing of the conv kernels that eager and compiled share.

For every convolution of the Table-1 model (VGG16, width 0.25, 32 px) it
times ``conv2d_columns``, ``conv2d_weight_grad`` and ``conv2d_input_grad``
(:mod:`repro.nn.functional`) on preallocated buffers, as plans run them, at
batch 32 (a training batch) and 9, and prints the best-of-``repeats`` ms,
both gradient GEMMs' GFLOP/s and the input-gradient path ``conv2d_gathers``
picks.  Usage:  PYTHONPATH=src python benchmarks/conv_layers.py [repeats]
"""

import sys
from time import perf_counter

import numpy as np

from repro.compile import capture_forward
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.modules import Conv2d


def best_ms(fn, repeats):
    times = []
    for _ in range(repeats + 1):  # the first call warms caches and pages
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return 1e3 * min(times[1:])


def main(repeats=5):
    model = build_model("vgg16", num_classes=10, image_size=32, width_multiplier=0.25, seed=0).eval()
    names = [name for name, module in model.named_modules() if isinstance(module, Conv2d)]
    rng = np.random.default_rng(0)
    print(f"{'layer':26s} batch  C->OC    px path    cols_ms wgrad_ms igrad_ms wgrad_GF/s igrad_GF/s")
    for batch in (32, 9):
        graph = capture_forward(model, rng.random((batch, 3, 32, 32)))
        for name, node in zip(names, [node for node in graph.nodes if node.op == "conv2d"]):
            x = rng.random(graph.node(node.inputs[0]).shape)
            weight = rng.random(graph.node(node.inputs[1]).shape)
            (n, c, h, _), (oc, _, k, _) = x.shape, weight.shape
            s, p = node.meta["stride"], node.meta["padding"]
            shapes = F.conv2d_buffers(x.shape, weight.shape, s, p)
            b = {name: np.empty(shape) for name, shape in shapes.items()}
            cols, grad_mat, gw = b["cols"], rng.random(shapes["grad_mat"]), np.empty(weight.shape)
            cols_ms = best_ms(lambda: F.conv2d_columns(x, k, s, p, out=cols, xpad=b["xpad"]), repeats)
            wgrad_ms = best_ms(lambda: F.conv2d_weight_grad(grad_mat, cols, k, out=gw, gw_mat=b["gw_mat"]), repeats)
            igrad_ms = best_ms(lambda: F.conv2d_input_grad(grad_mat, weight, x.shape, s, p, b), repeats)
            path = "gather" if F.conv2d_gathers(k, s, p) else "scatter"
            gflop = 2.0 * cols.size * oc / 1e9
            print(f"{name:26s} {n:5d} {c:3d}->{oc:<4d} {h:3d} {path:7s} "
                  f"{cols_ms:8.2f} {wgrad_ms:8.2f} {igrad_ms:8.2f} {gflop / wgrad_ms * 1e3:10.1f} "
                  f"{gflop / igrad_ms * 1e3:10.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
