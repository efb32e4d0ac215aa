"""Shared trained-model artifacts: train once, load everywhere.

The fleet's original parallel slowdown (BENCH_fleet.json at 0.87x) came
from every worker process re-training the same predictor configuration:
the per-process memo in :mod:`repro.fleet.shards` cannot cross a process
boundary, so a grid that shares one ``train_key`` across all shards paid
for training once per *worker* instead of once per *fleet*.

This module fixes that with a content-addressed on-disk store:

- :func:`train_key_digest` hashes the (already hashable, deterministic)
  training-cache key into a stable file name, so every process that
  computes the same key addresses the same artifact;
- :class:`ArtifactStore` serializes a trained predictor exactly once
  (published with :func:`repro.atomicfile.write_atomic`) and loads it
  everywhere else.  The reader is tolerant the same way the shard ledger is: a
  corrupt or torn artifact is *reported* (:class:`ArtifactStoreWarning`)
  and treated as a miss, so the worst case is re-training a model, never
  crashing a fleet;
- :func:`prewarm_training` walks a grid before fan-out and trains each
  unique training configuration exactly once in the parent process, so
  workers start with a warm store and never train at all;
- :func:`worker_store_initializer` is the picklable
  ``ProcessPoolExecutor`` initializer that points each worker at the
  store.

The store is consulted by :func:`repro.fleet.shards.cached_training`
between the in-process memo and the builder: memo hit, then artifact
load, then train-and-publish.  Training is deterministic given the key
and pickling round-trips numpy arrays exactly, so a loaded artifact and
a fresh train are interchangeable — the byte-identical aggregate
guarantee is preserved.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings

from repro.atomicfile import write_atomic
from repro.errors import ArtifactStoreWarning

#: Schema tag inside every artifact payload so future layouts can be
#: detected, not guessed (mirrors the ledger's LEDGER_VERSION).  Bump it
#: whenever a pickled predictor gains state its methods need, or training
#: fits different numbers: version 2 added the UBF predictor's column
#: index array, version 3 the UBF's exact-gradient optimizer.
ARTIFACT_VERSION = 3


def train_key_digest(key) -> str:
    """Stable content digest of a training-cache key.

    Keys are tuples of primitives (names, seeds, ParamSets, deterministic
    dataclass reprs), so ``repr`` is a canonical byte string that agrees
    across processes and interpreter runs — no ``PYTHONHASHSEED``
    dependence, unlike ``hash()``.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed trained-model files under one root directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def path_for(self, key) -> str:
        """Where the artifact for ``key`` lives (exists or not)."""
        return os.path.join(self.root, f"{train_key_digest(key)}.pkl")

    def contains(self, key) -> bool:
        return os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for name in os.listdir(self.root) if name.endswith(".pkl"))

    def save(self, key, trained) -> str:
        """Atomically publish ``trained`` for ``key``; returns the path.

        A concurrent reader never sees a half-written artifact, and
        concurrent writers (two pre-warms racing on a shared store) just
        overwrite with identical bytes.
        """
        path = self.path_for(key)
        payload = {
            "version": ARTIFACT_VERSION,
            "key_repr": repr(key),
            "trained": trained,
        }
        write_atomic(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def load(self, key):
        """The trained model for ``key``, or ``None`` on miss/corruption.

        Tolerant by design: any unreadable, torn, mis-versioned or
        colliding artifact is surfaced as an :class:`ArtifactStoreWarning`
        and treated as a cache miss (the caller re-trains), mirroring the
        shard ledger's forgiving reader.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception as exc:  # torn write, truncation, stale class, ...
            warnings.warn(
                ArtifactStoreWarning(
                    f"unreadable artifact {path} ({exc!r}); re-training"
                ),
                stacklevel=2,
            )
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != ARTIFACT_VERSION
            or payload.get("key_repr") != repr(key)
        ):
            warnings.warn(
                ArtifactStoreWarning(
                    f"artifact {path} does not match its key "
                    "(version or key mismatch); re-training"
                ),
                stacklevel=2,
            )
            return None
        return payload["trained"]


# ----------------------------------------------------------------------
# The process-wide active store (what cached_training consults)
# ----------------------------------------------------------------------

_ACTIVE_STORE: ArtifactStore | None = None


def configure_artifact_store(store: ArtifactStore | str | None) -> ArtifactStore | None:
    """Install (or clear, with ``None``) this process's artifact store.

    Accepts a ready :class:`ArtifactStore` or a root path.  Returns the
    installed store so callers can keep a handle.
    """
    global _ACTIVE_STORE
    if isinstance(store, str):
        store = ArtifactStore(store)
    _ACTIVE_STORE = store
    return store


def active_artifact_store() -> ArtifactStore | None:
    """The store :func:`~repro.fleet.shards.cached_training` consults."""
    return _ACTIVE_STORE


def worker_store_initializer(root: str) -> None:
    """``ProcessPoolExecutor`` initializer: point this worker at ``root``.

    Module-level (hence picklable) so the process backend can ship it to
    spawned as well as forked workers.
    """
    configure_artifact_store(ArtifactStore(root))


# ----------------------------------------------------------------------
# Pre-warm: train each unique configuration exactly once before fan-out
# ----------------------------------------------------------------------


def prewarm_training(specs, store: ArtifactStore) -> dict:
    """Publish every training artifact a grid needs, training each once.

    Walks ``specs`` in key order, asks each scenario for its training
    plan (``(train_key, builder)`` — see
    :func:`repro.fleet.shards.training_plan`), dedupes on the key digest,
    and trains only the configurations the store does not already hold.
    Returns counters: ``unique_keys`` (distinct training configurations
    in the grid), ``trained`` (built this pass) and ``reused`` (already
    in the store), plus ``unplanned`` shards whose scenario declares no
    training (e.g. ``no-pfm``).
    """
    from repro.fleet.shards import training_plan

    plans: dict[str, tuple] = {}
    unplanned = 0
    for spec in sorted(specs, key=lambda s: s.key()):
        plan = training_plan(spec)
        if plan is None:
            unplanned += 1
            continue
        key, builder = plan
        plans.setdefault(train_key_digest(key), (key, builder))
    trained = reused = 0
    for _digest, (key, builder) in sorted(plans.items()):
        if store.contains(key):
            reused += 1
            continue
        store.save(key, builder())
        trained += 1
    return {
        "unique_keys": len(plans),
        "trained": trained,
        "reused": reused,
        "unplanned": unplanned,
    }
