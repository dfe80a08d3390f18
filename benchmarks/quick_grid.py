#!/usr/bin/env python3
"""Quick grid benchmark: a 3-spec experiment grid through the parallel runner.

Runs a tiny grid (CE vs PGD-AT on smallcnn, plus a dropout-bearing VGG11
IB-RAR spec with ``mi_on_adversarial=True`` trained fully compiled) with 2
workers against a throwaway artifact store, then runs it a second time to
demonstrate (and assert) the full cache hit, and writes two JSON artifacts:

* the artifact-store **manifest** (what was trained/evaluated, by hash);
* the grid **timing summary** of both invocations (wall time, worker count,
  training forward passes — zero on the second pass), including the VGG
  spec's ``compile_coverage`` (compiled / total training batches).

The VGG spec is the compiled-dropout regression gate: its training, and a
forced re-train of it on the same store, must finish with **zero** genuine
eager fallbacks (``TrainingCompileStats.fallbacks``, persisted as
``fallbacks`` in the train record's compile stats).

Each invocation also leaves a ``grid`` RunRecord in the store (browse with
``python -m repro.obs runs list --store <dir>``); pass a persistent store
directory as the third argument so CI can ``runs diff`` cold vs warm.

Usage:  python benchmarks/quick_grid.py [manifest.json] [timing.json] [store-dir]
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro.attacks import AttackSpec
from repro.experiments import ArtifactStore, ExperimentSpec, run_grid


def demo_specs() -> list:
    shared = dict(
        dataset="cifar10",
        dataset_params=dict(n_train=200, n_test=80, image_size=12, seed=0),
        model="smallcnn",
        model_params=dict(image_size=12, base_channels=4, hidden_dim=16, seed=0),
        optimizer=dict(lr=0.05, weight_decay=1e-3),
        epochs=2,
        batch_size=50,
        attacks=[
            AttackSpec("pgd", dict(steps=3, seed=0)),
            AttackSpec("fgsm", dict()),
        ],
        eval_examples=40,
        seed=0,
    )
    vgg = ExperimentSpec(
        name="VGG-IBRAR",
        dataset="cifar10",
        # VGG's five pooling stages need image_size % 32 == 0.
        dataset_params=dict(n_train=64, n_test=32, image_size=32, seed=0),
        model="vgg11",
        model_params=dict(image_size=32, width_multiplier=0.125, dropout=0.5, seed=0),
        loss={"name": "pgd", "params": {"steps": 2}},
        ibrar=dict(mi_on_adversarial=True),
        optimizer=dict(lr=0.05, weight_decay=1e-3),
        epochs=2,
        batch_size=32,
        attacks=[AttackSpec("fgsm", dict())],
        eval_examples=16,
        train_compile=True,
        seed=0,
    )
    return [
        ExperimentSpec(loss="ce", name="CE", **shared),
        ExperimentSpec(loss={"name": "pgd", "params": {"steps": 2}}, name="PGD-AT", **shared),
        vgg,
    ]


def compile_stats(store: ArtifactStore, spec: ExperimentSpec) -> dict:
    """The compile-stats section of a spec's stored train record."""
    record = store.load_train_record(spec) or {}
    return (record.get("history") or {}).get("compile") or {}


def main() -> None:
    manifest_path = sys.argv[1] if len(sys.argv) > 1 else "grid-manifest.json"
    timing_path = sys.argv[2] if len(sys.argv) > 2 else "grid-timing.json"
    store_root = sys.argv[3] if len(sys.argv) > 3 else tempfile.mkdtemp(prefix="repro-grid-")

    store = ArtifactStore(store_root)
    specs = demo_specs()
    vgg = specs[-1]

    cold = run_grid(specs, workers=2, store=store)
    warm = run_grid(specs, workers=2, store=store)
    assert warm.computed == [] and warm.train_forward_examples == 0, "cache miss on rerun"
    assert warm.report_json() == cold.report_json(), "cached reports diverged"

    # The dropout-bearing IB-RAR spec must train fully compiled: every batch
    # past the per-signature warmup replays a plan, and the trainer's
    # fallback count (persisted as "fallbacks") stays 0.
    stats = compile_stats(store, vgg)
    assert stats, "VGG train record is missing compile stats"
    assert stats.get("fallbacks") == 0, f"compiled dropout training fell back: {stats}"
    assert stats.get("compiled_batches", 0) > 0, f"nothing compiled: {stats}"
    total = stats["compiled_batches"] + stats["eager_batches"]
    coverage = stats["compiled_batches"] / total if total else 0.0

    # A forced re-train of the same spec on the warm store must compile just
    # as fully as the cold run.
    run_grid([vgg], workers=1, store=store, force=True)
    forced = compile_stats(store, vgg)
    assert forced.get("fallbacks") == 0, f"forced re-train fell back: {forced}"

    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(store.manifest(), handle, sort_keys=True, indent=2)
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "cold": cold.summary(),
                "warm": warm.summary(),
                "compile_coverage": round(coverage, 6),
                "compile_stats": stats,
                "forced_compile_stats": forced,
            },
            handle,
            sort_keys=True,
            indent=2,
        )

    for result in cold.results:
        report = result.report
        adv = ", ".join(f"{k}={v * 100:.1f}%" for k, v in report["adversarial"].items())
        print(f"{report['method']:>8}: natural={report['natural'] * 100:.1f}%  {adv}")
    print(
        f"cold: {cold.seconds:.2f}s ({len(cold.computed)} trained)   "
        f"warm: {warm.seconds:.2f}s (all {warm.cached} from store, 0 training forwards)"
    )
    print(f"vgg compile coverage: {coverage * 100:.0f}% (fallbacks=0, also on re-train)")
    print(f"wrote {manifest_path} and {timing_path}")


if __name__ == "__main__":
    main()
