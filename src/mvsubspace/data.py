"""Multi-view datasets: loading, centering, label indicators, targets, PCA, splits.

Conventions used throughout the package: a view is a ``d_s x n`` float array
whose columns are samples, all views share the same column count ``n``, and
class labels are integers ``1..c`` with every class occupied.  Files on disk
store one sample per row and are transposed on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGET_KINDS = (
    "centered_onehot",
    "sigma_invsqrt_onehot",
    "identity_n",
    "centered_normalized_label",
)


def center_columns(X):
    """Subtract the mean column of X, i.e. compute X @ H_n."""
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=1, keepdims=True)


def _check_labels(labels):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a one-dimensional integer array")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.size == 0:
        raise ValueError("labels must not be empty")
    uniq = np.unique(labels)
    for pos, val in enumerate(uniq, start=1):
        if val != pos:
            raise ValueError(
                f"labels must cover a contiguous range 1..c; found label {val}"
            )
    return labels.astype(np.int64)


@dataclass(frozen=True)
class MultiViewDataset:
    """Immutable bundle of ``v`` views plus optional labels.

    views
        tuple of float arrays, each of shape ``(d_s, n)``.
    labels
        int array of shape ``(n,)`` with values ``1..c``, or None.
    label_map
        optional mapping from the contiguous labels back to the original
        label values found on disk.
    """

    views: tuple
    labels: np.ndarray | None = None
    label_map: dict | None = None

    def __post_init__(self):
        if len(self.views) == 0:
            raise ValueError("a dataset needs at least one view")
        views = tuple(np.asarray(V, dtype=float) for V in self.views)
        n = views[0].shape[1] if views[0].ndim == 2 else -1
        for s, V in enumerate(views, start=1):
            if V.ndim != 2:
                raise ValueError(f"view {s} must be a 2-d matrix")
            if V.shape[0] == 0:
                raise ValueError(f"view {s} has no features")
            if V.shape[1] != n:
                raise ValueError(
                    f"all views must share the sample count: view 1 has {n} "
                    f"columns, view {s} has {V.shape[1]}"
                )
            if not np.all(np.isfinite(V)):
                raise ValueError(f"view {s} contains non-finite values")
        if n < 2:
            raise ValueError("a dataset needs at least two samples")
        object.__setattr__(self, "views", views)
        if self.labels is not None:
            labels = _check_labels(self.labels)
            if labels.shape[0] != n:
                raise ValueError(
                    f"label count {labels.shape[0]} does not match sample count {n}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_views(self):
        return len(self.views)

    @property
    def n_samples(self):
        return self.views[0].shape[1]

    @property
    def dims(self):
        return tuple(V.shape[0] for V in self.views)

    @property
    def n_classes(self):
        if self.labels is None:
            return 0
        return int(self.labels.max())

    def subset(self, idx):
        """Dataset restricted to the sample indices ``idx`` (order kept)."""
        idx = np.asarray(idx, dtype=int)
        views = tuple(V[:, idx] for V in self.views)
        labels = None if self.labels is None else self.labels[idx]
        return MultiViewDataset(views, labels, self.label_map)


@dataclass(frozen=True)
class IndicatorMatrix:
    """One-hot labels Y (c x n) and class counts; see ``scatter.label_kernels``."""

    Y: np.ndarray
    counts: np.ndarray

    @property
    def n_classes(self):
        return self.Y.shape[0]


def build_indicator(labels):
    """IndicatorMatrix for labels 1..c: Y[r, i] = 1 iff sample i is in class r."""
    labels = _check_labels(labels)
    n = labels.shape[0]
    c = int(labels.max())
    Y = np.zeros((c, n))
    Y[labels - 1, np.arange(n)] = 1.0
    return IndicatorMatrix(Y=Y, counts=Y.sum(axis=1))


# Supervised target kind -> G(counts), the c x c matrix with target T = G Y
# for the class counts of the c x n indicator Y: H_n = I - 1 1^T / n and
# 1^T = 1_c^T Y give Y H_n = (I - counts 1_c^T / n) Y.
TARGET_MIXES = {
    "centered_onehot": lambda counts: (
        np.eye(len(counts)) - counts[:, None] / counts.sum()
    ),
    "sigma_invsqrt_onehot": lambda counts: np.diag(1.0 / np.sqrt(counts)),
    "centered_normalized_label": lambda counts: (
        np.diag(1.0 / counts) - (1.0 / counts)[None, :] / len(counts)
    ),
}


def make_target(dataset, kind):
    """The o x n regression target for one of the supported kinds.

    centered_onehot            Y H_n
    sigma_invsqrt_onehot       Sigma^{-1/2} Y   (rows scaled by 1/sqrt(n_r))
    identity_n                 I_n              (label free)
    centered_normalized_label  H_c Sigma^{-1} Y (class-centered soft labels)

    A supervised target is G Y with G from ``TARGET_MIXES``; Y is one-hot, so
    every entry of G Y is an entry of G.
    """
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}; expected one of {TARGET_KINDS}")
    if kind == "identity_n":
        return np.eye(dataset.n_samples)
    if dataset.labels is None:
        raise ValueError(f"target kind {kind!r} needs labels")
    ind = build_indicator(dataset.labels)
    return TARGET_MIXES[kind](ind.counts) @ ind.Y


def _read_matrix(path, shape=(None, None)):
    """The CSV matrix at ``path``; ``shape`` gives the row and column counts
    it must have, None where any count will do."""
    # np.loadtxt warns before it returns nothing from blank or comment lines.
    with open(path, "rb") as lines:
        if not any(line.partition(b"#")[0].strip() for line in lines):
            raise ValueError(f"{path.name}: empty file")
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as err:
        raise ValueError(f"{path.name}: could not parse numeric data ({err})") from None
    if any(want not in (None, got) for want, got in zip(shape, M.shape)):
        raise ValueError(f"{path.name}: expected shape {shape}, found {M.shape}")
    return M


def _write_text(path, text):
    """Write text to ``path`` through a ``.tmp`` sibling renamed over it, so a
    reader never sees a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _read_labels(path):
    raw = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            raw.append(int(text))
        except ValueError:
            raise ValueError(
                f"{path.name}, line {i}: expected an integer label, got {text!r}"
            ) from None
    if not raw:
        raise ValueError(f"{path.name}: empty file")
    return np.asarray(raw, dtype=np.int64)


def load_dataset(root):
    """Load ``view_1.csv .. view_v.csv`` (sample per row) plus optional labels.csv.

    Views are transposed to the package's column-sample layout.  Label values
    are re-indexed to a contiguous 1..c; the original values are kept in
    ``label_map`` (new -> original).
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"dataset directory {root} does not exist")
    paths = sorted(root.glob("view_*.csv"))
    indexed = {}
    for p in paths:
        stem = p.stem.split("_", 1)[1]
        if stem.isdigit():
            indexed[int(stem)] = p
    if not indexed:
        raise ValueError(f"no view_*.csv files found in {root}")
    v = max(indexed)
    if sorted(indexed) != list(range(1, v + 1)):
        raise ValueError(
            f"view files must be numbered consecutively from 1; found {sorted(indexed)}"
        )
    views = []
    row_counts = {}
    for s in range(1, v + 1):
        M = _read_matrix(indexed[s])
        row_counts[indexed[s].name] = M.shape[0]
        views.append(M.T)
    counts = set(row_counts.values())
    if len(counts) > 1:
        detail = ", ".join(f"{name} has {rc} rows" for name, rc in row_counts.items())
        raise ValueError(f"views disagree on the sample count: {detail}")

    labels = None
    label_map = None
    labels_path = root / "labels.csv"
    if labels_path.exists():
        raw = _read_labels(labels_path)
        if raw.shape[0] != views[0].shape[1]:
            raise ValueError(
                f"labels.csv has {raw.shape[0]} rows but views have "
                f"{views[0].shape[1]} samples"
            )
        originals, inverse = np.unique(raw, return_inverse=True)
        labels = inverse + 1
        label_map = {new: int(orig) for new, orig in enumerate(originals, start=1)}
    return MultiViewDataset(tuple(views), labels, label_map)


@dataclass(frozen=True)
class PcaReducer:
    """Per-view PCA loadings: orthonormal components plus the training mean."""

    components: np.ndarray  # d_s x r, orthonormal columns
    mean: np.ndarray  # (d_s,)

    def transform(self, X):
        """Project held-out columns with the training mean and components."""
        X = np.asarray(X, dtype=float)
        return self.components.T @ (X - self.mean[:, None])


def pca_reduce(dataset, energy=0.95):
    """Reduce each view to the smallest dimension keeping ``energy`` variance.

    The kept dimension per view is the smallest r whose leading eigenvalue
    mass reaches ``energy`` of the total (ties resolved by >=).  Returns the
    reduced dataset and one PcaReducer per view.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    reduced = []
    reducers = []
    for s, X in enumerate(dataset.views, start=1):
        mean = X.mean(axis=1)
        Xc = X - mean[:, None]
        cov = Xc @ Xc.T
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = eigvals[::-1]
        eigvecs = eigvecs[:, ::-1]
        eigvals = np.clip(eigvals, 0.0, None)
        total = eigvals.sum()
        if total <= 0.0:
            raise ValueError(f"view {s} has zero variance; PCA is undefined")
        frac = np.cumsum(eigvals) / total
        r = int(np.searchsorted(frac, energy - 1e-12)) + 1
        r = min(r, X.shape[0])
        U = eigvecs[:, :r]
        reducers.append(PcaReducer(components=U, mean=mean))
        reduced.append(U.T @ Xc)
    return MultiViewDataset(tuple(reduced), dataset.labels, dataset.label_map), reducers


def split_dataset(dataset, train_fraction, seed=0):
    """Deterministic stratified split into (train, test) datasets.

    Each class contributes round(train_fraction * n_c) samples to the
    training side, clamped so both sides keep at least one sample of the
    class.  Without labels every sample counts as one class, which makes
    the split a plain shuffled cut.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    if labels is None:
        labels = np.ones(dataset.n_samples, dtype=np.int64)
    train_parts = []
    test_parts = []
    for r in range(1, labels.max() + 1):
        members = np.where(labels == r)[0]
        if members.size < 2:
            raise ValueError(
                f"class {r} has a single sample and cannot appear on both "
                "sides of the split"
            )
        perm = rng.permutation(members)
        t = int(np.floor(train_fraction * members.size + 0.5))
        t = min(max(t, 1), members.size - 1)
        train_parts.append(perm[:t])
        test_parts.append(perm[t:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return dataset.subset(train_idx), dataset.subset(test_idx)
