"""Shared dataset fixtures for pipeline and acceptance tests."""

from dataclasses import dataclass

import numpy as np

from droidlens.dataset import Dataset
from droidlens.errors import DatasetError
from droidlens.rng import derive_rng



def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Same ids, and the same feature and label arrays, shape included."""
    return (
        a.ids == b.ids
        and a.features.shape == b.features.shape
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


@dataclass(frozen=True)
class BlobSpec:
    """Gaussian blob mixture: one center per class-labeled component."""

    centers: tuple[tuple[float, ...], ...]
    per_center_count: int
    noise_sigma: float
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        centers = tuple(tuple(float(x) for x in c) for c in self.centers)
        labels = tuple(int(x) for x in self.labels)
        if not centers:
            raise DatasetError("blob spec needs at least one center")
        dims = {len(c) for c in centers}
        if len(dims) > 1:
            raise DatasetError(f"centers have mixed dimensions: {sorted(dims)}")
        if len(labels) != len(centers):
            raise DatasetError(f"{len(centers)} centers but {len(labels)} labels")
        if any(lab not in (0, 1) for lab in labels):
            raise DatasetError("blob labels must be 0 or 1")
        if self.per_center_count < 1:
            raise DatasetError("per_center_count must be at least 1")
        if self.noise_sigma < 0:
            raise DatasetError("noise_sigma must be non-negative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "labels", labels)


def synth_blobs(spec: BlobSpec, seed: int) -> Dataset:
    """Sample labeled Gaussian blobs; negative coordinates clamp to 0.

    Deterministic for a fixed seed: one derived stream, centers drawn
    in declaration order.
    """
    rng = derive_rng(seed, "synth_blobs")
    dim = len(spec.centers[0])
    ids: list[str] = []
    labels: list[int] = []
    blocks: list[np.ndarray] = []
    for ci, (center, label) in enumerate(zip(spec.centers, spec.labels)):
        block = np.asarray(center, dtype=np.float64) + rng.normal(
            0.0, spec.noise_sigma, size=(spec.per_center_count, dim)
        )
        np.maximum(block, 0.0, out=block)
        blocks.append(block)
        ids.extend(f"blob{ci:02d}-{ri:04d}" for ri in range(spec.per_center_count))
        labels.extend([label] * spec.per_center_count)
    return Dataset(
        ids=tuple(ids),
        features=np.vstack(blocks),
        labels=np.array(labels, dtype=np.int64),
    )


def make_ds(features, labels, ids=None) -> Dataset:
    features = np.asarray(features, dtype=np.float64)
    if ids is None:
        ids = tuple(f"r{i}" for i in range(len(features)))
    return Dataset(ids=ids, features=features, labels=np.asarray(labels))


def four_blob_dataset(seed: int, per: int = 60, sigma: float = 1.0) -> Dataset:
    """Two regions, each holding one blob per class, with the class
    boundary oriented oppositely in the two regions.

    A single linear boundary cannot separate the classes globally, but
    within each region (recoverable by k-means with k = 2) they are
    linearly separable.
    """
    spec = BlobSpec(
        centers=((5.0, 5.0), (5.0, 15.0), (105.0, 15.0), (105.0, 5.0)),
        per_center_count=per,
        noise_sigma=sigma,
        labels=(0, 1, 0, 1),
    )
    return synth_blobs(spec, seed)


def two_blob_dataset(seed: int, per: int = 30, sigma: float = 0.6) -> Dataset:
    spec = BlobSpec(
        centers=((5.0, 5.0), (15.0, 15.0)),
        per_center_count=per,
        noise_sigma=sigma,
        labels=(0, 1),
    )
    return synth_blobs(spec, seed)


def noisy_blob_dataset(seed: int, per: int = 80, flip: float = 0.2) -> Dataset:
    """Two separated blobs with a fraction of labels flipped."""
    spec = BlobSpec(
        centers=((5.0, 5.0), (15.0, 15.0)),
        per_center_count=per,
        noise_sigma=2.0,
        labels=(0, 1),
    )
    ds = synth_blobs(spec, seed)
    rng = derive_rng(seed, "label-flips")
    labels = ds.labels.copy()
    n_flip = int(round(flip * ds.n))
    victims = rng.choice(ds.n, size=n_flip, replace=False)
    labels[victims] = 1 - labels[victims]
    return Dataset(ids=ds.ids, features=ds.features, labels=labels)
