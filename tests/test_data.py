import hashlib
from dataclasses import replace

import numpy as np
import pytest

from pego.data import DatasetSpec, DomainDataset, generate_dataset, make_batch, split_train_val
from pego.errors import ConfigError, SplitError
from pego.numerics import make_rng
from pego.trainer import canonical_dataset_spec


def test_sample_counting():
    ds = generate_dataset(DatasetSpec(domains=4, classes=4, per_class=50), seed=0)
    assert ds.total_samples() == 800
    for dom in ds.domains:
        assert ds.images[dom].shape == (200, 16, 16)
        for c in range(4):
            assert int((ds.labels[dom] == c).sum()) == 50


def test_generation_is_deterministic():
    spec = DatasetSpec(domains=3, classes=2, per_class=5)
    a = generate_dataset(spec, seed=9)
    b = generate_dataset(spec, seed=9)
    c = generate_dataset(spec, seed=10)
    for dom in a.domains:
        assert np.array_equal(a.images[dom], b.images[dom])
    assert not np.array_equal(a.images["d0"], c.images["d0"])


def test_pixels_in_unit_range():
    ds = generate_dataset(DatasetSpec(domains=3, classes=4, per_class=3), seed=1)
    for dom in ds.domains:
        assert ds.images[dom].min() >= 0.0 and ds.images[dom].max() <= 1.0


def test_every_domain_contains_every_class():
    ds = generate_dataset(DatasetSpec(domains=3, classes=8, per_class=2), seed=2)
    for dom in ds.domains:
        assert set(np.unique(ds.labels[dom])) == set(range(8))


def test_spec_validation():
    with pytest.raises(ConfigError):
        generate_dataset(DatasetSpec(domains=2), seed=0)
    with pytest.raises(ConfigError):
        generate_dataset(DatasetSpec(classes=1), seed=0)
    with pytest.raises(ConfigError):
        generate_dataset(DatasetSpec(classes=9), seed=0)
    with pytest.raises(ConfigError):
        generate_dataset(DatasetSpec(per_class=0), seed=0)
    with pytest.raises(ConfigError, match="need at least 3 domains for leave-one-out, got 2"):
        replace(DatasetSpec(), domains=2)


def test_split_counts_match_fraction():
    # 25 per class over 4 classes: 20% of each domain's 100 samples go to validation
    ds = generate_dataset(DatasetSpec(domains=3, classes=4, per_class=25), seed=3)
    train, val = split_train_val(ds, 0.2, seed=0)
    for dom in ds.domains:
        assert len(val.labels[dom]) == 20
        assert len(train.labels[dom]) == 80
        for c in range(4):
            assert int((val.labels[dom] == c).sum()) == 5


def _image_multiset(images):
    return sorted(hashlib.sha256(img.tobytes()).hexdigest() for img in images)


def test_split_is_a_partition():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=10), seed=4)
    train, val = split_train_val(ds, 0.3, seed=1)
    for dom in ds.domains:
        combined = _image_multiset(np.concatenate([train.images[dom], val.images[dom]]))
        assert combined == _image_multiset(ds.images[dom])
        assert len(train.labels[dom]) + len(val.labels[dom]) == len(ds.labels[dom])
        assert not set(_image_multiset(train.images[dom])) & set(_image_multiset(val.images[dom]))


def test_split_is_deterministic():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=10), seed=5)
    t1, v1 = split_train_val(ds, 0.2, seed=7)
    t2, v2 = split_train_val(ds, 0.2, seed=7)
    for dom in ds.domains:
        assert np.array_equal(v1.images[dom], v2.images[dom])
        assert np.array_equal(t1.labels[dom], t2.labels[dom])


def test_split_errors():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=1), seed=6)
    with pytest.raises(SplitError):
        split_train_val(ds, 0.5, seed=0)
    ok = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=5), seed=6)
    with pytest.raises(ConfigError):
        split_train_val(ok, 0.0, seed=0)
    with pytest.raises(ConfigError):
        split_train_val(ok, 1.0, seed=0)


def test_a_class_too_small_for_a_validation_sample_is_named():
    # 3 samples at fraction 0.2 give floor(0.6) = 0 validation samples
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=3), seed=6)
    expected = r"class 0 in domain d0 has 3 sample\(s\), none for validation at fraction 0\.2"
    with pytest.raises(SplitError, match=expected):
        split_train_val(ds, 0.2, seed=0)
    _, val = split_train_val(ds, 0.34, seed=0)  # floor(1.02) = 1
    assert all(len(val.labels[d]) == 2 for d in ds.domains)


def test_make_batch_concatenates_per_domain_quotas():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=20), seed=7)
    batch = make_batch(ds, 32, make_rng(0))
    assert len(batch.labels) == 96
    assert batch.images.shape == (96, 16, 16)
    small = make_batch(ds, 8, make_rng(0))
    assert len(small.labels) == 24
    assert [dom for dom, _ in small.tags] == ["d0"] * 8 + ["d1"] * 8 + ["d2"] * 8


def test_make_batch_samples_with_replacement_when_short():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=2), seed=8)
    batch = make_batch(ds, 16, make_rng(1))
    assert len(batch.labels) == 48  # only 4 samples per domain, so draws repeat


def test_make_batch_is_deterministic_per_rng_state():
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=10), seed=9)
    b1 = make_batch(ds, 4, make_rng(2))
    b2 = make_batch(ds, 4, make_rng(2))
    assert np.array_equal(b1.images, b2.images)
    assert b1.tags == b2.tags


def test_without_removes_exactly_one_domain():
    ds = generate_dataset(DatasetSpec(domains=4, classes=2, per_class=3), seed=10)
    rest = ds.without("d2")
    assert rest.domains == ["d0", "d1", "d3"]
    assert "d2" not in rest.images
    with pytest.raises(ConfigError):
        ds.without("nope")


def test_linear_probe_learns_above_chance():
    # Sanity oracle: ridge regression on raw pixels, trained on three
    # domains, should beat chance by a clear margin in-domain.
    ds = generate_dataset(DatasetSpec(domains=4, classes=4, per_class=50), seed=0)
    sources = ds.without("d3")
    train, val = split_train_val(sources, 0.2, seed=0)
    xs = np.concatenate([train.images[d].reshape(len(train.labels[d]), -1) for d in train.domains])
    ys = np.concatenate([train.labels[d] for d in train.domains])
    onehot = np.eye(4)[ys]
    x1 = np.concatenate([xs, np.ones((len(xs), 1))], axis=1)
    w = np.linalg.solve(x1.T @ x1 + 1e-3 * np.eye(x1.shape[1]), x1.T @ onehot)
    correct = 0
    total = 0
    for d in val.domains:
        xv = val.images[d].reshape(len(val.labels[d]), -1)
        pred = np.argmax(np.concatenate([xv, np.ones((len(xv), 1))], axis=1) @ w, axis=1)
        correct += int((pred == val.labels[d]).sum())
        total += len(val.labels[d])
    assert correct / total > 0.25 + 0.1


def test_dataset_validate_rejects_missing_class():
    ds = DomainDataset(
        domains=["a", "b"],
        images={"a": np.zeros((2, 4, 4)), "b": np.zeros((1, 4, 4))},
        labels={"a": np.array([0, 1]), "b": np.array([0])},
        num_classes=2,
    )
    with pytest.raises(ConfigError):
        ds.validate()


def _two_domains(labels: np.ndarray) -> DomainDataset:
    return DomainDataset(
        domains=["a", "b"],
        images={d: np.zeros((labels.size, 4, 4)) for d in "ab"},
        labels={"a": np.arange(labels.size), "b": labels},
        num_classes=labels.size,
    )


@pytest.mark.parametrize(
    "labels",
    [np.array([0.5, 1, 2, 3]), np.array([0.0, 1, 2, 3]), np.array([False, True])],
    ids=["fractional", "whole-float", "bool"],
)
def test_dataset_validate_rejects_labels_of_a_non_integer_dtype(labels):
    # A float label would be counted as a class, and a whole-number float
    # or bool label would fail only mid-training, in the loss's indexing.
    with pytest.raises(ConfigError, match=f"domain b has labels of dtype {labels.dtype}"):
        _two_domains(labels).validate()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_dataset_validate_accepts_integer_labels(dtype):
    _two_domains(np.arange(4, dtype=dtype)).validate()


def test_canonical_dataset_digest_is_pinned():
    # Every pixel and label of the canonical dataset at seed 1, as first
    # generated; a change to rendering that moves any bit shows here.
    ds = generate_dataset(canonical_dataset_spec(), seed=1)
    h = hashlib.sha256()
    for dom in ds.domains:
        h.update(ds.images[dom].tobytes())
        h.update(ds.labels[dom].tobytes())
    assert h.hexdigest() == "72c235121c3839338381822c0363d818e3def3a5c902d70680e33a6dacaf6819"
