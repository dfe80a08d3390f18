"""Content-addressed on-disk artifact store for experiments.

Artifacts are addressed by the spec hashes defined in :mod:`.spec`:

* ``models/<h[:2]>/<training_hash>/`` — one trained model: ``checkpoint.npz``
  (weights + metadata, including the Eq. (3) channel mask, which is *not*
  part of the state dict), ``train.json`` (the training recipe, history and
  timing).  The two files are one artifact: either one missing or
  unreadable quarantines the directory.
* ``reports/<h[:2]>/<content_hash>/`` — one evaluation: ``experiment.json``
  (the full spec, the deterministic robustness report, and engine telemetry).
* ``traces/<k[:2]>/<key>/`` — serialized compile captures (``trace.json`` +
  ``trace.npz``) that older stores may hold.  The library neither writes nor
  reads them, and :meth:`ArtifactStore.clear` sweeps them;
  :meth:`~ArtifactStore.save_trace`/:meth:`~ArtifactStore.load_trace` stay
  only because the ``cellbench`` instrumentation wraps them by name.
* ``serve/`` — robustness reports cached by an evaluation server that older
  versions shipped; only :meth:`ArtifactStore.clear` touches them.

Writes are atomic: artifacts are assembled in a temporary directory and
renamed into place, so parallel grid workers can share one store and a
killed run never leaves a half-written artifact behind.  Reads treat any
unreadable/corrupt artifact as a cache miss and quarantine it (the directory
is removed) so the runner falls back to recomputing.

The default root is ``$REPRO_ARTIFACTS`` or ``.repro-artifacts`` in the
working directory; delete the directory (or run
``python -m repro.experiments clear``) to drop every cached artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..models import build_model
from ..models.base import ImageClassifier
from ..utils.serialization import load_checkpoint, save_checkpoint
from .spec import ExperimentSpec

__all__ = ["ArtifactStore", "DEFAULT_STORE_ENV", "default_store_root"]

DEFAULT_STORE_ENV = "REPRO_ARTIFACTS"
CHECKPOINT_NAME = "checkpoint.npz"
TRAIN_RECORD_NAME = "train.json"
REPORT_NAME = "experiment.json"
RUN_RECORD_NAME = "record.json"
TRACE_MANIFEST_NAME = "trace.json"
TRACE_ARRAYS_NAME = "trace.npz"


def default_store_root() -> Path:
    """The store root: ``$REPRO_ARTIFACTS`` or ``.repro-artifacts`` in cwd."""
    return Path(os.environ.get(DEFAULT_STORE_ENV) or ".repro-artifacts")


def _read_json(path: Path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


class ArtifactStore:
    """Content-addressed cache of trained checkpoints and robustness reports."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"

    # -- layout ------------------------------------------------------------------
    def model_dir(self, training_hash: str) -> Path:
        return self.root / "models" / training_hash[:2] / training_hash

    def report_dir(self, content_hash: str) -> Path:
        return self.root / "reports" / content_hash[:2] / content_hash

    def run_dir(self, run_id: str) -> Path:
        return self.root / "runs" / run_id[:2] / run_id

    def trace_dir(self, key: str) -> Path:
        return self.root / "traces" / key[:2] / key

    def _publish(self, build_dir: Path, final_dir: Path) -> Path:
        """Atomically move a fully assembled artifact directory into place."""
        final_dir.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(build_dir, final_dir)
        except OSError:
            # Another worker published the same artifact first; theirs is
            # byte-equivalent (content-addressed), keep it and drop ours.
            shutil.rmtree(build_dir, ignore_errors=True)
        return final_dir

    def _build_dir(self) -> Path:
        tmp = self.root / "tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        tmp.mkdir(parents=True, exist_ok=True)
        return tmp

    def _quarantine(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    # -- models ------------------------------------------------------------------
    def has_model(self, spec: ExperimentSpec) -> bool:
        directory = self.model_dir(spec.training_hash)
        return (directory / CHECKPOINT_NAME).exists() and (directory / TRAIN_RECORD_NAME).exists()

    def save_model(
        self,
        spec: ExperimentSpec,
        model: ImageClassifier,
        history: Optional[Dict[str, Any]] = None,
        timing: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist a trained model under the spec's training hash."""
        training_hash = spec.training_hash
        build_dir = self._build_dir()
        metadata = {
            "training_hash": training_hash,
            "model": spec.model,
            "model_params": spec.model_kwargs,
            "num_classes": int(model.num_classes),
            "channel_mask": (
                np.asarray(model.channel_mask, dtype=float).tolist()
                if model.channel_mask is not None
                else None
            ),
        }
        save_checkpoint(model, build_dir / CHECKPOINT_NAME, metadata=metadata)
        _write_json(
            build_dir / TRAIN_RECORD_NAME,
            {
                "training_hash": training_hash,
                "spec": spec.training_dict(),
                "history": history,
                "timing": timing or {},
                "created": time.time(),
            },
        )
        return self._publish(build_dir, self.model_dir(training_hash))

    def load_model(self, spec: ExperimentSpec) -> Optional[ImageClassifier]:
        """Rebuild the trained model for a spec, or ``None`` on miss/corruption."""
        directory = self.model_dir(spec.training_hash)
        if not directory.exists():
            return None
        try:
            # train.json is part of the artifact: a model whose record is
            # unreadable would be served with no history forever.
            _read_json(directory / TRAIN_RECORD_NAME)
            state, metadata = load_checkpoint(directory / CHECKPOINT_NAME)
            metadata = metadata or {}
            kwargs = dict(metadata.get("model_params") or spec.model_kwargs)
            kwargs.pop("num_classes", None)
            model = build_model(
                metadata.get("model", spec.model),
                num_classes=int(metadata["num_classes"]),
                **kwargs,
            )
            model.load_state_dict(state)
            mask = metadata.get("channel_mask")
            if mask is not None:
                model.set_channel_mask(np.asarray(mask, dtype=np.float64))
            model.eval()
            return model
        except Exception:
            # Partial/corrupt artifact: drop it so the runner recomputes.
            self._quarantine(directory)
            return None

    def load_train_record(self, spec: ExperimentSpec) -> Optional[Dict[str, Any]]:
        """The spec's ``train.json``, or ``None`` on miss/corruption.

        An unreadable record quarantines the whole model directory, like
        :meth:`load_model`, so the next run retrains and republishes.
        """
        directory = self.model_dir(spec.training_hash)
        path = directory / TRAIN_RECORD_NAME
        if not path.exists():
            return None
        try:
            return _read_json(path)
        except Exception:
            self._quarantine(directory)
            return None

    # -- reports -----------------------------------------------------------------
    def has_report(self, spec: ExperimentSpec) -> bool:
        return (self.report_dir(spec.content_hash) / REPORT_NAME).exists()

    def save_report(self, spec: ExperimentSpec, payload: Dict[str, Any]) -> Path:
        """Persist an evaluation record under the spec's content hash.

        ``payload`` must carry at least a deterministic ``report`` section;
        the spec and hashes are added so every artifact is self-describing.
        """
        record = dict(payload)
        record["spec"] = spec.as_dict()
        record["content_hash"] = spec.content_hash
        record["training_hash"] = spec.training_hash
        record.setdefault("created", time.time())
        build_dir = self._build_dir()
        _write_json(build_dir / REPORT_NAME, record)
        return self._publish(build_dir, self.report_dir(spec.content_hash))

    def load_report(self, spec: ExperimentSpec) -> Optional[Dict[str, Any]]:
        """Load the evaluation record for a spec, or ``None`` on miss/corruption."""
        directory = self.report_dir(spec.content_hash)
        path = directory / REPORT_NAME
        if not path.exists():
            return None
        try:
            record = _read_json(path)
            if "report" not in record:
                raise KeyError("report")
            return record
        except Exception:
            self._quarantine(directory)
            return None

    # -- captured compile traces ---------------------------------------------------
    # Nothing in the library calls these two.  They stay only because
    # cellbench/instrument.py wraps them by name (its patcher raises on a
    # missing attribute); delete them with the next change to that benchmark.
    def save_trace(
        self, key: str, manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> Path:
        """Persist one serialized capture trace under its signature digest."""
        build_dir = self._build_dir()
        _write_json(build_dir / TRACE_MANIFEST_NAME, manifest)
        np.savez(build_dir / TRACE_ARRAYS_NAME, **arrays)
        return self._publish(build_dir, self.trace_dir(key))

    def load_trace(self, key: str) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """Load ``(manifest, arrays)`` for a trace, or ``None`` on miss/corruption."""
        directory = self.trace_dir(key)
        manifest_path = directory / TRACE_MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            manifest = _read_json(manifest_path)
            arrays: Dict[str, np.ndarray] = {}
            arrays_path = directory / TRACE_ARRAYS_NAME
            if arrays_path.exists():
                with np.load(arrays_path, allow_pickle=False) as data:
                    arrays = {name: data[name] for name in data.files}
            return manifest, arrays
        except Exception:
            self._quarantine(directory)
            return None

    # -- run records (repro.obs observatory) -------------------------------------
    # One record per training run or grid invocation (see
    # :mod:`repro.obs.records`).  Content-addressed like everything else:
    # the id is the sha256 of the canonical record JSON, so re-saving the
    # identical record is a no-op publish.
    def save_run_record(self, record: Dict[str, Any]) -> str:
        """Persist one JSON-safe RunRecord; returns its run id."""
        canonical = json.dumps(record, sort_keys=True)
        run_id = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        stored = dict(record)
        stored["run_id"] = run_id
        build_dir = self._build_dir()
        _write_json(build_dir / RUN_RECORD_NAME, stored)
        self._publish(build_dir, self.run_dir(run_id))
        return run_id

    def load_run_record(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Load a RunRecord by full id, or ``None`` on miss/corruption."""
        directory = self.run_dir(run_id)
        path = directory / RUN_RECORD_NAME
        if not path.exists():
            return None
        try:
            return _read_json(path)
        except Exception:
            self._quarantine(directory)
            return None

    def list_run_ids(self) -> List[str]:
        return [digest for digest, _ in self._iter_artifacts("runs", RUN_RECORD_NAME)]

    def resolve_run_id(self, prefix: str) -> Optional[str]:
        """Expand a run-id prefix; ``ValueError`` when ambiguous."""
        matches = [r for r in self.list_run_ids() if r.startswith(prefix)]
        if not matches:
            return None
        if len(matches) > 1:
            raise ValueError(
                f"run id prefix '{prefix}' is ambiguous: {sorted(matches)}"
            )
        return matches[0]

    def list_run_records(self) -> List[Dict[str, Any]]:
        """Every readable RunRecord, oldest first (corrupt ones quarantined)."""
        records: List[Dict[str, Any]] = []
        for digest, path in self._iter_artifacts("runs", RUN_RECORD_NAME):
            try:
                record = _read_json(path)
            except Exception:
                self._quarantine(path.parent)
                continue
            record.setdefault("run_id", digest)
            records.append(record)
        records.sort(key=lambda r: (r.get("created") or 0, r.get("run_id")))
        return records

    # -- maintenance -------------------------------------------------------------
    def _iter_artifacts(self, kind: str, filename: str) -> Iterator[Tuple[str, Path]]:
        base = self.root / kind
        if not base.exists():
            return
        for shard in sorted(base.iterdir()):
            if not shard.is_dir():
                continue
            for directory in sorted(shard.iterdir()):
                if (directory / filename).exists():
                    yield directory.name, directory / filename

    def manifest(self) -> Dict[str, Any]:
        """Summaries of every stored artifact (for CLI listing / CI upload)."""
        models: List[Dict[str, Any]] = []
        for digest, path in self._iter_artifacts("models", TRAIN_RECORD_NAME):
            try:
                record = _read_json(path)
            except Exception:
                models.append({"training_hash": digest, "corrupt": True})
                continue
            spec = record.get("spec", {})
            models.append(
                {
                    "training_hash": digest,
                    "dataset": spec.get("dataset", {}).get("name"),
                    "model": spec.get("model", {}).get("name"),
                    "loss": spec.get("loss", {}).get("name"),
                    "ibrar": spec.get("ibrar") is not None,
                    "epochs": spec.get("epochs"),
                    "seed": spec.get("seed"),
                    "created": record.get("created"),
                }
            )
        reports: List[Dict[str, Any]] = []
        for digest, path in self._iter_artifacts("reports", REPORT_NAME):
            try:
                record = _read_json(path)
            except Exception:
                reports.append({"content_hash": digest, "corrupt": True})
                continue
            report = record.get("report", {})
            reports.append(
                {
                    "content_hash": digest,
                    "training_hash": record.get("training_hash"),
                    "name": record.get("spec", {}).get("name"),
                    "natural": report.get("natural"),
                    "worst_case": report.get("worst_case"),
                    "attacks": sorted(report.get("adversarial", {})),
                    "created": record.get("created"),
                }
            )
        return {"root": str(self.root), "models": models, "reports": reports}

    def find_report(self, prefix: str) -> Optional[Dict[str, Any]]:
        """Load a stored report by (a prefix of) its content hash.

        Unreadable matches are quarantined (like :meth:`load_report`) and the
        scan continues, so one corrupt artifact never masks a healthy one.
        """
        for digest, path in self._iter_artifacts("reports", REPORT_NAME):
            if digest.startswith(prefix):
                try:
                    return _read_json(path)
                except Exception:
                    self._quarantine(path.parent)
        return None

    def clear(self) -> int:
        """Delete every artifact; returns how many artifact directories died."""
        count = sum(1 for _ in self._iter_artifacts("models", TRAIN_RECORD_NAME))
        count += sum(1 for _ in self._iter_artifacts("reports", REPORT_NAME))
        count += sum(1 for _ in self._iter_artifacts("serve", "robustness.json"))
        count += sum(1 for _ in self._iter_artifacts("runs", RUN_RECORD_NAME))
        count += sum(1 for _ in self._iter_artifacts("traces", TRACE_MANIFEST_NAME))
        for kind in ("models", "reports", "serve", "runs", "traces", "tmp"):
            shutil.rmtree(self.root / kind, ignore_errors=True)
        return count
