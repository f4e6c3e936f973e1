"""Datasets: synthetic generators, the CIFAR-10 binary loader, global input
standardization, and saving and loading datasets in the table layout that
:mod:`coldgp.records` owns.

CIFAR-10 binary layout (the classic batch files): each record is exactly
3073 bytes, one label byte in [0, 9] followed by 3072 pixel bytes laid out
as 1024 red, 1024 green, 1024 blue values in row-major 32x32 order.  Pixels
map to [0, 1] by dividing by 255; the byte record is recoverable exactly by
rounding back, which is what the round-trip tests rely on.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    LabelOutOfRangeError,
    MalformedRecordError,
    NonFiniteInputError,
    ZeroVarianceError,
    check_array_size,
)
from .records import read_csv, write_csv
from .rng import RngStream

CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"
_CIFAR_RECORD = 3073
_SPLITS = ("train", "test")


@dataclass(frozen=True)
class LabeledDataset:
    """Inputs plus targets, tagged with split and provenance.

    ``class_count`` is None for regression (float targets) and the number of
    classes for classification (integer labels in [0, class_count)).
    """

    inputs: np.ndarray
    targets: np.ndarray
    class_count: int | None
    split_tag: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        object.__setattr__(self, "inputs", inputs)
        if inputs.ndim != 2:
            raise DimensionMismatchError(f"inputs must be (n, d), got shape {inputs.shape}")
        if inputs.shape[0] < 1:
            raise EmptyInputError("dataset needs at least one example")
        if not np.all(np.isfinite(inputs)):
            raise NonFiniteInputError("inputs contain NaN or infinity")
        if self.split_tag not in _SPLITS:
            raise ValueError(f"split_tag must be one of {_SPLITS}, got {self.split_tag!r}")
        targets = np.asarray(self.targets)
        if targets.ndim != 1 or targets.shape[0] != inputs.shape[0]:
            raise DimensionMismatchError(
                f"targets shape {targets.shape} does not match {inputs.shape[0]} inputs"
            )
        if self.class_count is None:
            targets = targets.astype(np.float64)
            if not np.all(np.isfinite(targets)):
                raise NonFiniteInputError("regression targets contain NaN or infinity")
        else:
            if int(self.class_count) < 2:
                raise ValueError(f"class_count must be >= 2, got {self.class_count!r}")
            object.__setattr__(self, "class_count", int(self.class_count))
            if not np.issubdtype(targets.dtype, np.integer):
                if not np.all(targets == np.floor(targets)):
                    raise LabelOutOfRangeError("classification labels must be integers")
            targets = targets.astype(np.int64)
            if targets.size and (targets.min() < 0 or targets.max() >= self.class_count):
                raise LabelOutOfRangeError(
                    f"labels must lie in [0, {self.class_count}), got range "
                    f"[{targets.min()}, {targets.max()}]"
                )
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.class_count is not None


def gen_rbf_regression(n_train, n_test, noise_std, kernel, seed):
    """Draw a 1-D regression problem from an RBF prior.

    Scalar inputs are iid standard normal; the latent function is one draw
    from the zero-mean GP with the given kernel over all inputs jointly;
    targets add iid N(0, noise_std^2).  The first n_train positions form the
    train split, the rest the test split.  Draw order (inputs, latent, noise)
    is fixed, all on stream 0 of the seed.  The Gram of many scalar inputs is
    ill-conditioned, so its factor may need a jitter rung; the absolute
    jitter added is recorded as ``jitter_used`` in both splits' provenance.
    """
    from .kernels import gram  # local import: kernels has no data dependency
    from .linalg import cholesky

    if kernel.family != "rbf":
        raise ValueError(f"generator requires an rbf kernel, got family {kernel.family!r}")
    n_train, n_test = int(n_train), int(n_test)
    if n_train < 1 or n_test < 1:
        raise EmptyInputError("need n_train >= 1 and n_test >= 1")
    noise_std = float(noise_std)
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    n = n_train + n_test
    check_array_size("the data Gram (n_train + n_test rows and columns)", (n, n))
    rng = RngStream(seed, 0)
    x = rng.standard_normal(n)[:, None]
    factor = cholesky(gram(kernel, x, x))
    latent = factor.lower @ rng.standard_normal(n)
    y = latent + noise_std * rng.standard_normal(n)
    prov = {"name": "rbf-regression", "seed": int(seed), "noise_std": noise_std,
            "jitter_used": factor.jitter_used}
    train = LabeledDataset(x[:n_train], y[:n_train], None, "train", dict(prov))
    test = LabeledDataset(x[n_train:], y[n_train:], None, "test", dict(prov))
    return train, test


def gen_cluster_classification(n_per_class, class_count, dim, separation, seed):
    """Gaussian clusters with unit noise at separated basis-vector centers.

    Class c sits at separation * e_{c mod dim}, negated once the basis is
    exhausted, so up to 2*dim distinct centers are available.  The train
    split has n_per_class points per class, the test split n_per_class // 2
    (at least one).  Points are drawn class by class on stream 0 (train) and
    stream 1 (test).
    """
    n_per_class, class_count, dim = int(n_per_class), int(class_count), int(dim)
    if n_per_class < 1:
        raise EmptyInputError("n_per_class must be >= 1")
    if class_count < 2:
        raise ValueError(f"class_count must be >= 2, got {class_count}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if class_count > 2 * dim:
        raise ValueError(f"at most {2 * dim} distinct centers in dimension {dim}")
    separation = float(separation)
    if not (np.isfinite(separation) and separation >= 0.0):
        raise ValueError(f"separation must be finite and >= 0, got {separation!r}")
    check_array_size("the training inputs (n_per_class * class_count, dim)",
                     (n_per_class * class_count, dim))

    centers = np.zeros((class_count, dim))
    for c in range(class_count):
        centers[c, c % dim] = separation * (1.0 if c < dim else -1.0)

    def draw(stream: int, count: int):
        r = RngStream(seed, stream)
        xs, ys = [], []
        for c in range(class_count):
            xs.append(centers[c] + r.standard_normal((count, dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    n_test_per_class = max(1, n_per_class // 2)
    prov = {"name": "clusters", "seed": int(seed), "separation": separation}
    xtr, ytr = draw(0, n_per_class)
    xte, yte = draw(1, n_test_per_class)
    train = LabeledDataset(xtr, ytr, class_count, "train", dict(prov))
    test = LabeledDataset(xte, yte, class_count, "test", dict(prov))
    return train, test


def _read_cifar_file(path: str):
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing CIFAR-10 batch file: {path}")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % _CIFAR_RECORD != 0:
        raise MalformedRecordError(
            f"{path}: size {raw.size} is not a positive multiple of {_CIFAR_RECORD}"
        )
    records = raw.reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0]
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise MalformedRecordError(
            f"{path}: record {bad} has label byte {int(labels[bad])} > 9"
        )
    return labels.astype(np.int64), records[:, 1:]


def _normalize_keep(keep_classes):
    if keep_classes is None:
        return list(range(10))
    keep = [int(c) for c in keep_classes]
    if not keep:
        raise EmptyInputError("keep_classes is empty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep_classes has duplicates: {keep}")
    for c in keep:
        if not 0 <= c <= 9:
            raise LabelOutOfRangeError(f"keep_classes entries must be in [0, 9], got {c}")
    return keep


def load_cifar10(dir_path, keep_classes=None, n_train=2000, n_test=1000, seed=0):
    """Load and subsample the CIFAR-10 binary batches under ``dir_path``.

    keep_classes selects a class subset, a sequence of class indices (None
    keeps all ten); selected labels are remapped to 0..len(keep)-1 in the
    order given.  Subsampling is without replacement via a seeded
    permutation, stream 0 for train and stream 1 for test.  Pixels are
    scaled to [0, 1]; no further normalization is applied here.
    """
    n_train, n_test = int(n_train), int(n_test)
    if n_train < 1 or n_test < 1:
        raise EmptyInputError("need n_train >= 1 and n_test >= 1")
    keep = _normalize_keep(keep_classes)
    remap = np.zeros(10, dtype=np.int64)  # original class -> its position in keep
    remap[keep] = np.arange(len(keep))

    def gather(files, count, stream):
        all_pixels, all_labels, origin = [], [], []
        for name in files:
            labels, pixels = _read_cifar_file(os.path.join(str(dir_path), name))
            mask = np.isin(labels, keep)
            idx = np.nonzero(mask)[0]
            all_pixels.append(pixels[idx])
            all_labels.append(labels[idx])
            origin.extend((name, int(i)) for i in idx)
        pixels = np.concatenate(all_pixels)
        labels = np.concatenate(all_labels)
        if count > pixels.shape[0]:
            key = ("n_train", "n_test")[stream]
            raise ConfigError(
                f"{key}={count} requested but only {pixels.shape[0]} examples match classes {keep}"
            )
        perm = RngStream(seed, stream).permutation(pixels.shape[0])[:count]
        chosen = [origin[i] for i in perm]
        return pixels[perm].astype(np.float64) / 255.0, remap[labels[perm]], chosen

    xtr, ytr, rec_tr = gather(CIFAR_TRAIN_FILES, n_train, 0)
    xte, yte, rec_te = gather((CIFAR_TEST_FILE,), n_test, 1)
    base = {"name": "cifar10", "dir": str(dir_path), "seed": int(seed), "keep_classes": keep}
    train = LabeledDataset(xtr, ytr, len(keep), "train", {**base, "records": rec_tr})
    test = LabeledDataset(xte, yte, len(keep), "test", {**base, "records": rec_te})
    return train, test


def standardize(train: LabeledDataset, test: LabeledDataset):
    """(train, test) with inputs globally standardized by the train split.

    Subtracts the scalar mean and divides by the scalar standard deviation
    of every train input entry, from both splits, so test data never leaks
    into the statistics.  Both results are tagged
    ``"normalize": "global-standardize"`` in their provenance.
    """
    mean, std = float(np.mean(train.inputs)), float(np.std(train.inputs))
    if std <= 0.0:
        raise ZeroVarianceError("cannot standardize: input standard deviation is zero")
    return tuple(LabeledDataset((data.inputs - mean) / std, data.targets, data.class_count,
                                data.split_tag,
                                {**data.provenance, "normalize": "global-standardize"})
                 for data in (train, test))


def save_dataset(data: LabeledDataset, path):
    """Write a dataset as a table, through :func:`write_csv`.

    The header names the columns, x0..x{d-1} then ``target`` for regression
    or ``label`` for classification; then one row per example.  Floats are
    written with repr, so a round trip through :func:`load_dataset`
    reproduces them bit-exactly.
    """
    cols = [f"x{j}" for j in range(data.d)]
    cols.append("label" if data.is_classification else "target")
    write_csv(path, cols, [x + [y] for x, y in zip(data.inputs.tolist(), data.targets.tolist())])


def load_dataset(path, split_tag: str = "train", class_count: int | None = None) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`, through :func:`read_csv`.

    The header's last column decides the kind: ``label`` means
    classification (class_count defaults to max label + 1, and a label of 2
    or more must then be below the row count), ``target`` means regression.
    A cell that does not parse raises MalformedRecordError naming its line.
    """
    header, rows = read_csv(path)
    if not header:
        raise MalformedRecordError(f"{path}: missing header line")
    kind = header[-1]
    if kind not in ("target", "label") or header[:-1] != [f"x{j}" for j in range(len(header) - 1)]:
        raise MalformedRecordError(f"{path}: unrecognized header {header!r}")
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    xs, ys = [], []
    for line_no, row in enumerate(rows, start=2):
        try:
            xs.append([float(v) for v in row[:-1]])
            ys.append(float(row[-1]) if kind == "target" else np.int64(row[-1]))
        except (ValueError, OverflowError):  # OverflowError: a label beyond int64
            raise MalformedRecordError(f"{path}:{line_no}: unparseable field in {row!r}") from None
    inputs = np.asarray(xs, dtype=np.float64)
    if kind == "target":
        return LabeledDataset(inputs, np.array(ys, dtype=np.float64), None, split_tag,
                              {"name": "file", "path": str(path)})
    labels = np.array(ys, dtype=np.int64)
    if class_count is None:
        # bounded by the row count, so one huge label cannot size the latent arrays
        top = int(np.argmax(labels))
        if labels[top] >= max(labels.size, 2):
            raise MalformedRecordError(
                f"{path}:{top + 2}: label {labels[top]} is not below the {labels.size} data "
                f"rows; an inferred class count (max label + 1) may not exceed the row count"
            )
        class_count = max(int(labels[top]) + 1, 2)
    return LabeledDataset(inputs, labels, class_count, split_tag,
                          {"name": "file", "path": str(path)})
