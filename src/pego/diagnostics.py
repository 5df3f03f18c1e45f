"""Weight-space and feature-space diagnostics as plot-ready CSV data.

The principal components of a weight matrix are read as its left
singular vectors. The weight report compares the components of a frozen
base weight against those of the adapter update applied to it, and
counts the update's numerical rank at a relative threshold of 1e-3.
The feature projection pools the feature vectors of several models over
the same samples and projects everything onto one shared 2-D principal
basis so the models stay comparable.
"""

from __future__ import annotations

import csv
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
    models: list[tuple[str, vit.VitModel]], images: np.ndarray, labels: np.ndarray
) -> FeatureProjection:
    """Project every (model, sample) feature vector onto the top-2
    principal axes of the pooled, mean-centered feature set."""
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if images.shape[0] < 2:
        raise ConfigError(f"need at least 2 samples, got {images.shape[0]}")
    if not models:
        raise ConfigError("need at least one model")
    feats = []
    tags: list[str] = []
    for tag, model in models:
        feats.append(vit.features_batch(model, images))
        tags.extend([tag] * images.shape[0])
    pooled = np.concatenate(feats, axis=0)
    centered = pooled - pooled.mean(axis=0, keepdims=True)
    if float(np.abs(centered).max(initial=0.0)) < 1e-12:
        raise DegenerateInputError("all feature vectors are identical")
    basis = svd(centered).v[:, :2]
    return FeatureProjection(
        coords=centered @ basis,
        labels=np.tile(labels, len(models)),
        model_tags=tags,
    )


def write_pc_report_csvs(report: PcReport, out_dir) -> list[str]:
    evr_path = f"{out_dir}/pc_evr.csv"
    with open(evr_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["component", "evr"])
        for i, val in enumerate(report.evr_top_k):
            writer.writerow([i, repr(val)])
    cos_path = f"{out_dir}/pc_cosine.csv"
    with open(cos_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "abs_cos"])
        for i in range(report.pc_cosine.shape[0]):
            for j in range(report.pc_cosine.shape[1]):
                writer.writerow([i, j, repr(float(report.pc_cosine[i, j]))])
    return [evr_path, cos_path]


def write_feature_projection_csv(proj: FeatureProjection, out_dir) -> str:
    path = f"{out_dir}/feature_proj.csv"
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_tag", "label", "x", "y"])
        for tag, label, (x, y) in zip(proj.model_tags, proj.labels, proj.coords):
            writer.writerow([tag, int(label), repr(float(x)), repr(float(y))])
    return path
