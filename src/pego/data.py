"""Procedural multi-domain shape datasets.

A class is a shape family (bars, cross, blob, ring; a second variant of
each family covers up to eight classes). A domain is a rendering style:
foreground and background levels, a weak background texture, stroke
width, and pixel noise, all fixed per domain. Styles restyle the canvas
without touching shape identity, which is what lets a model trained on
some domains still read the class in an unseen one.

Every pixel is derived from seeded substreams keyed by (domain, class,
sample), so a dataset is a pure function of its spec and seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SplitError, check_field_types
from .numerics import make_rng

_FAMILIES = 4
_MAX_CLASSES = 8


@dataclass(frozen=True)
class DatasetSpec:
    domains: int = 4
    classes: int = 4
    per_class: int = 100
    image_size: int = 16

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.domains < 3:
            raise ConfigError(f"need at least 3 domains for leave-one-out, got {self.domains}")
        if not 2 <= self.classes <= _MAX_CLASSES:
            raise ConfigError(f"classes must lie in [2, {_MAX_CLASSES}], got {self.classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be positive, got {self.per_class}")
        if self.image_size < 8:
            raise ConfigError(f"image size must be at least 8, got {self.image_size}")


@dataclass
class DomainDataset:
    domains: list[str]
    images: dict[str, np.ndarray]
    labels: dict[str, np.ndarray]
    num_classes: int

    def validate(self) -> None:
        """Check for more than one domain, each named once and holding
        (n, s, s) finite images at one size s, n integer labels (bool is
        not an integer) and every class."""
        if len(self.domains) < 2:
            raise ConfigError("a domain dataset needs more than one domain")
        repeated = next((d for i, d in enumerate(self.domains) if d in self.domains[:i]), None)
        if repeated is not None:
            raise ConfigError(f"domain {repeated} is listed more than once in {self.domains}")
        side = self.images[self.domains[0]].shape[-1:]
        for dom in self.domains:
            images, labels = self.images[dom], self.labels[dom]
            if images.shape != (labels.size, *side, *side) or labels.shape != (labels.size,):
                raise ConfigError(
                    f"domain {dom} has images of shape {images.shape} for labels of shape {labels.shape}; "
                    f"expected (n, s, s) images for n labels, with s the same for every domain"
                )
            if not np.isfinite(images).all():
                raise ConfigError(f"domain {dom} has non-finite pixels")
            if not np.issubdtype(labels.dtype, np.integer):
                raise ConfigError(f"domain {dom} has labels of dtype {labels.dtype}, expected an integer dtype")
            present = set(labels.tolist())
            if present != set(range(self.num_classes)):
                raise ConfigError(f"domain {dom} has classes {sorted(present)}, expected 0 to {self.num_classes - 1}")

    def without(self, domain: str) -> "DomainDataset":
        if domain not in self.domains:
            raise ConfigError(f"unknown domain {domain}")
        keep = [d for d in self.domains if d != domain]
        return DomainDataset(
            domains=keep,
            images={d: self.images[d] for d in keep},
            labels={d: self.labels[d] for d in keep},
            num_classes=self.num_classes,
        )

    def total_samples(self) -> int:
        return sum(len(self.labels[d]) for d in self.domains)


@dataclass
class Batch:
    images: np.ndarray
    labels: np.ndarray
    tags: list[tuple[str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class _Style:
    fg: float
    bg: float
    texture: str
    texture_amp: float
    noise: float
    thickness: int


def _domain_style(seed: int, d: int) -> _Style:
    rng = make_rng(seed, 1000 + d)
    return _Style(
        fg=float(0.75 + 0.25 * rng.random()),
        bg=float(0.05 + 0.15 * rng.random()),
        texture=("flat", "hgrad", "vgrad", "checker")[d % 4],
        texture_amp=float(0.05 + 0.08 * rng.random()),
        noise=float(0.02 + 0.05 * rng.random()),
        thickness=int(1 + (rng.random() < 0.5)),
    )


@functools.lru_cache(maxsize=None)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only row and column coordinates of a ``size`` x ``size``
    image, one copy per size."""
    yy, xx = np.mgrid[0:size, 0:size]
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


def _background(style: _Style, size: int) -> np.ndarray:
    yy, xx = _grid(size)
    img = np.full((size, size), style.bg)
    if style.texture == "hgrad":
        img = img + style.texture_amp * (xx / (size - 1))
    elif style.texture == "vgrad":
        img = img + style.texture_amp * (yy / (size - 1))
    elif style.texture == "checker":
        img = img + style.texture_amp * (((xx // 2) + (yy // 2)) % 2)
    return img


def _shape_mask(class_idx: int, style: _Style, rng: np.random.Generator, size: int) -> np.ndarray:
    family = class_idx % _FAMILIES
    variant = class_idx // _FAMILIES
    yy, xx = _grid(size)
    t = style.thickness
    if family == 0:  # bars: parallel stripes, vertical or (variant) horizontal
        period = int(rng.integers(4, 7))
        phase = int(rng.integers(0, period))
        coord = yy if variant else xx
        return ((coord + phase) % period) < t
    if family == 1:  # cross: axis-aligned plus, or (variant) diagonal X
        cx = size // 2 + int(rng.integers(-2, 3))
        cy = size // 2 + int(rng.integers(-2, 3))
        if variant:
            return (np.abs((xx - cx) - (yy - cy)) < t) | (np.abs((xx - cx) + (yy - cy)) < t)
        return (np.abs(xx - cx) < t) | (np.abs(yy - cy) < t)
    if family == 2:  # blob: filled disk
        cx = size // 2 + int(rng.integers(-2, 3))
        cy = size // 2 + int(rng.integers(-2, 3))
        radius = 2.5 + 1.5 * rng.random() + (1.5 if variant else 0.0)
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
    # ring: annulus
    cx = size // 2 + int(rng.integers(-1, 2))
    cy = size // 2 + int(rng.integers(-1, 2))
    radius = 4.0 + 1.5 * rng.random() + (1.5 if variant else 0.0)
    dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    return np.abs(dist - radius) <= 0.4 + t / 2.0


def _render(class_idx: int, style: _Style, background: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    size = background.shape[0]
    img = np.where(_shape_mask(class_idx, style, rng, size), style.fg, background)
    img = img + rng.normal(0.0, style.noise, (size, size))
    return np.clip(img, 0.0, 1.0)


def generate_dataset(spec: DatasetSpec, seed: int) -> DomainDataset:
    """Deterministic dataset: domain d holds per_class samples of every class,
    all rendered in domain d's style."""
    names = [f"d{i}" for i in range(spec.domains)]
    images: dict[str, np.ndarray] = {}
    labels: dict[str, np.ndarray] = {}
    for d, name in enumerate(names):
        style = _domain_style(seed, d)
        background = _background(style, spec.image_size)
        imgs = np.empty((spec.classes * spec.per_class, spec.image_size, spec.image_size))
        labs = np.empty(spec.classes * spec.per_class, dtype=np.int64)
        pos = 0
        for c in range(spec.classes):
            for s in range(spec.per_class):
                imgs[pos] = _render(c, style, background, make_rng(seed, d, c, s))
                labs[pos] = c
                pos += 1
        images[name] = imgs
        labels[name] = labs
    ds = DomainDataset(domains=names, images=images, labels=labels, num_classes=spec.classes)
    ds.validate()
    return ds


def split_train_val(dataset: DomainDataset, fraction: float, seed: int) -> tuple[DomainDataset, DomainDataset]:
    """Per-domain split, stratified by class: validation takes
    floor(fraction * n) samples, at least one, of each class in each
    domain. The two halves are disjoint and together exhaust the input."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"val fraction must lie strictly between 0 and 1, got {fraction}")
    train_images, train_labels, val_images, val_labels = {}, {}, {}, {}
    for d, dom in enumerate(dataset.domains):
        rng = make_rng(seed, 2000 + d)
        labs = dataset.labels[dom]
        val_idx: list[np.ndarray] = []
        train_idx: list[np.ndarray] = []
        for c in range(dataset.num_classes):
            idx = np.flatnonzero(labs == c)
            n_val = int(np.floor(fraction * idx.size))
            if n_val < 1:
                raise SplitError(
                    f"class {c} in domain {dom} has {idx.size} sample(s), none for validation at fraction {fraction}"
                )
            perm = rng.permutation(idx)
            val_idx.append(perm[:n_val])
            train_idx.append(perm[n_val:])
        vi = np.sort(np.concatenate(val_idx))
        ti = np.sort(np.concatenate(train_idx))
        val_images[dom] = dataset.images[dom][vi]
        val_labels[dom] = labs[vi]
        train_images[dom] = dataset.images[dom][ti]
        train_labels[dom] = labs[ti]
    train = DomainDataset(list(dataset.domains), train_images, train_labels, dataset.num_classes)
    val = DomainDataset(list(dataset.domains), val_images, val_labels, dataset.num_classes)
    return train, val


def make_batch(dataset: DomainDataset, batch_per_domain: int, rng: np.random.Generator) -> Batch:
    """Concatenation of batch_per_domain draws from every domain, in domain
    order. Domains smaller than the quota are sampled with replacement."""
    images, labels, tags = [], [], []
    for dom in dataset.domains:
        n = len(dataset.labels[dom])
        idx = rng.choice(n, size=batch_per_domain, replace=n < batch_per_domain)
        images.append(dataset.images[dom][idx])
        labels.append(dataset.labels[dom][idx])
        tags.extend((dom, int(i)) for i in idx)
    return Batch(images=np.concatenate(images), labels=np.concatenate(labels), tags=tags)
