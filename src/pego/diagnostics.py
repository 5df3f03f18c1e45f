"""Weight-space and feature-space diagnostics.

The principal components of a weight matrix are read as its left
singular vectors. The weight report compares the components of a frozen
base weight against those of the adapter update applied to it, and
counts the update's numerical rank at a relative threshold of 1e-3.
The feature projection pools the feature vectors of several models over
the same samples and projects everything onto one shared 2-D principal
basis so the models stay comparable.

This module only computes; ``pego analyze`` (``cli``) writes the reports
as plot-ready CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vit
from .errors import ConfigError, DegenerateInputError, ShapeError
from .numerics import explained_variance_ratio, numerical_rank, svd

SIGNIFICANT_PC_REL_TOL = 1e-3


@dataclass
class PcReport:
    evr_top_k: list[float]
    pc_cosine: np.ndarray  # |cos| between base components (rows) and update components (cols)
    numerical_rank: int


def weight_pc_report(w_pre: np.ndarray, delta_w: np.ndarray, k: int) -> PcReport:
    """Explained variance of the update's top components, the update's
    numerical rank, and its component alignment with the base weight.

    Cosines are compared only for the update's significant components
    (singular value above 1e-3 of the largest), in absolute value so
    sign conventions cannot matter.
    """
    w_pre = np.asarray(w_pre, dtype=np.float64)
    delta_w = np.asarray(delta_w, dtype=np.float64)
    if w_pre.shape != delta_w.shape:
        raise ShapeError(f"weight shapes differ: {w_pre.shape} vs {delta_w.shape}")
    if k < 1 or k > min(w_pre.shape):
        raise ConfigError(f"k={k} outside [1, {min(w_pre.shape)}]")
    if not np.any(delta_w):
        raise DegenerateInputError("the weight update is identically zero")
    dec_pre = svd(w_pre)
    dec_delta = svd(delta_w)
    evr = explained_variance_ratio(dec_delta, k)
    rank = numerical_rank(dec_delta.s, SIGNIFICANT_PC_REL_TOL)
    k_pre = min(k, dec_pre.s.size)
    k_delta = min(k, rank)
    cosine = np.abs(dec_pre.u[:, :k_pre].T @ dec_delta.u[:, :k_delta])
    return PcReport(evr_top_k=evr, pc_cosine=cosine, numerical_rank=rank)


@dataclass
class FeatureProjection:
    coords: np.ndarray  # (points, 2)
    labels: np.ndarray  # (points,)
    model_tags: list[str]


def feature_projection(
    models: list[tuple[str, vit.VitModel]], images, labels: np.ndarray
) -> FeatureProjection:
    """Project every (model, sample) feature vector onto the top-2
    principal axes of the pooled, mean-centered feature set. ``images``
    is one array or a list of arrays read in place, as
    ``vit.features_batch`` reads them; ``labels`` has one entry per image,
    or ``ShapeError`` is raised before any forward."""
    labels = np.asarray(labels)
    if labels.shape[0] < 2:
        raise ConfigError(f"need at least 2 samples, got {labels.shape[0]}")
    count = sum(len(p) for p in images) if isinstance(images, list) else len(images)
    if labels.shape[0] != count:
        raise ShapeError(f"{labels.shape[0]} labels for {count} images")
    if not models:
        raise ConfigError("need at least one model")
    feats = []
    tags: list[str] = []
    for tag, model in models:
        feats.append(vit.features_batch(model, images))
        tags.extend([tag] * labels.shape[0])
    centered = feats[0] if len(feats) == 1 else np.concatenate(feats, axis=0)
    centered -= centered.mean(axis=0, keepdims=True)
    if float(np.abs(centered).max(initial=0.0)) < 1e-12:
        raise DegenerateInputError("all feature vectors are identical")
    basis = svd(centered).v[:, :2]
    return FeatureProjection(
        coords=centered @ basis,
        labels=np.tile(labels, len(models)),
        model_tags=tags,
    )
