"""k-means with k-means++ seeding, as ``scipy.cluster.vq.kmeans2`` runs it.

The UBF network places its kernel centres and MSET picks its exemplars
with ``kmeans2(data, k, minit="++", seed=seed)``.  Importing
``scipy.cluster`` loads ``scipy.spatial``, ``scipy.sparse`` and
``scipy.linalg`` (about 40 MiB and a quarter second per process), so
:func:`kmeans2` repeats its arithmetic in numpy:

- the draws come from ``RandomState(seed)``: one ``randint`` for the first
  centre, then one ``uniform`` per further centre against the cumulative
  squared-distance shares;
- squared distances are summed one dimension at a time, as scipy's
  ``cdist(metric="sqeuclidean")`` and its small-dimension ``vq`` loop do;
- each centroid is the in-order sum of its members divided by their count,
  and an empty cluster keeps its previous centre.

Up to four dimensions every float is scipy's.  From five on, scipy's ``vq``
ranks centres by the BLAS expansion ``|x|^2 - 2 x.c + |c|^2``, so a
label could differ only where two centres are equally near to within
rounding; this port keeps the exact per-dimension sum.  The empty-cluster
warning is not raised.
"""

from __future__ import annotations

import numpy as np

#: Lloyd iterations after the seeding (``kmeans2``'s default ``iter``).
_ITERATIONS = 10


def kmeans2(data: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(centers, labels)`` of ``kmeans2(data, k, minit="++", seed=seed)``.

    ``data`` is an ``(n, d)`` array of finite floats; ``ValueError`` as in
    scipy otherwise.
    """
    data = np.asarray_chkfinite(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise ValueError("kmeans2 needs a non-empty (n, d) array")
    if k < 1:
        raise ValueError(f"Cannot ask kmeans2 for {k} clusters")
    rng = np.random.RandomState(seed)  # pfmlint: disable=PFM001 -- kmeans2 draws from a seeded RandomState
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.randint(data.shape[0], dtype="int64")]
    for i in range(1, k):
        nearest = _squared_distances(centers[:i], data).min(axis=0)
        shares = (nearest / nearest.sum()).cumsum()
        centers[i] = data[int(np.searchsorted(shares, rng.uniform()))]
    for _ in range(_ITERATIONS):
        labels = _squared_distances(data, centers).argmin(axis=1)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=k)
        empty = counts == 0
        sums[~empty] /= counts[~empty, None]
        sums[empty] = centers[empty]
        centers = sums
    return centers, labels.astype(np.int32)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j] = sum_d (a[i, d] - b[j, d]) ** 2``, one dimension at a time."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for dim in range(a.shape[1]):
        diff = a[:, dim, None] - b[None, :, dim]
        out += diff * diff
    return out
