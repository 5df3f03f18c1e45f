import csv

import numpy as np
import pytest

from pego import cli, vit
from pego.adapters import group_delta, init_group
from pego.diagnostics import FeatureProjection, feature_projection, weight_pc_report
from pego.errors import ConfigError, DegenerateInputError, ShapeError
from pego.numerics import make_rng, svd
from pego.vit import VitConfig, init_vit


def _orthonormal(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


class TestWeightPcReport:
    def test_aligned_update_has_unit_cosine(self):
        rng = make_rng(0)
        w = rng.normal(size=(8, 8))
        top_left = svd(w).u[:, 0]
        delta = np.outer(top_left, rng.normal(size=8))
        report = weight_pc_report(w, delta, k=4)
        assert report.pc_cosine[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert report.numerical_rank == 1

    def test_orthogonal_update_has_vanishing_cosines(self):
        rng = make_rng(1)
        q = _orthonormal(rng, 8)
        w = q[:, :4] @ np.diag([4.0, 3.0, 2.0, 1.0]) @ _orthonormal(rng, 4).T
        delta = q[:, 4:] @ np.diag([2.0, 1.5, 1.0, 0.5]) @ _orthonormal(rng, 4).T
        # pad both to 8 columns so shapes match
        w = np.concatenate([w, np.zeros((8, 4))], axis=1)
        delta = np.concatenate([delta, np.zeros((8, 4))], axis=1)
        report = weight_pc_report(w, delta, k=4)
        assert np.abs(report.pc_cosine).max() < 1e-8

    def test_rank_bounds_from_group_structure(self):
        rng = make_rng(2)
        w = rng.normal(size=(10, 10))
        single = init_group(10, 10, 3, 1, rng)
        for m in single.modules:
            m.b.data[...] = rng.normal(size=m.b.data.shape)
        report = weight_pc_report(w, group_delta(single), k=6)
        assert report.numerical_rank <= 3
        group = init_group(10, 10, 2, 3, rng)
        for m in group.modules:
            m.b.data[...] = rng.normal(size=m.b.data.shape)
        report = weight_pc_report(w, group_delta(group), k=8)
        assert report.numerical_rank <= 6

    def test_fresh_group_hits_the_degenerate_path(self):
        rng = make_rng(3)
        w = rng.normal(size=(6, 6))
        fresh = init_group(6, 6, 2, 2, rng)
        with pytest.raises(DegenerateInputError):
            weight_pc_report(w, group_delta(fresh), k=3)

    def test_scale_invariance_of_directions(self):
        rng = make_rng(4)
        w = rng.normal(size=(7, 7))
        delta = rng.normal(size=(7, 2)) @ rng.normal(size=(2, 7))
        a = weight_pc_report(w, delta, k=5)
        b = weight_pc_report(w, 3.0 * delta, k=5)
        assert np.allclose(a.evr_top_k, b.evr_top_k, atol=1e-12)
        assert np.allclose(a.pc_cosine, b.pc_cosine, atol=1e-12)
        assert a.numerical_rank == b.numerical_rank

    def test_evr_entries_descending_in_unit_interval(self):
        rng = make_rng(5)
        report = weight_pc_report(rng.normal(size=(9, 9)), rng.normal(size=(9, 9)), k=9)
        evr = np.array(report.evr_top_k)
        assert np.all(evr >= 0.0) and np.all(evr <= 1.0)
        assert np.all(np.diff(evr) <= 1e-15)

    def test_validation(self):
        rng = make_rng(6)
        with pytest.raises(ShapeError):
            weight_pc_report(rng.normal(size=(4, 4)), rng.normal(size=(5, 4)), k=2)
        with pytest.raises(ConfigError):
            weight_pc_report(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)), k=9)


@pytest.fixture(scope="module")
def two_models():
    cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2.0, num_classes=2)
    a = init_vit(cfg, make_rng(7))
    b = init_vit(cfg, make_rng(8))
    return a, b


class TestFeatureProjection:
    def test_identical_models_give_identical_clouds(self, two_models):
        model, _ = two_models
        images = make_rng(9).random((10, 8, 8))
        labels = make_rng(10).integers(0, 2, 10)
        proj = feature_projection([("one", model), ("two", model)], images, labels)
        assert np.allclose(proj.coords[:10], proj.coords[10:], atol=1e-12)
        assert proj.model_tags == ["one"] * 10 + ["two"] * 10

    def test_projection_is_centered(self, two_models):
        a, b = two_models
        images = make_rng(11).random((12, 8, 8))
        labels = make_rng(12).integers(0, 2, 12)
        proj = feature_projection([("a", a), ("b", b)], images, labels)
        assert np.abs(proj.coords.mean(axis=0)).max() < 1e-10

    def test_axes_carry_top_two_eigenvalues(self, two_models):
        a, b = two_models
        images = make_rng(13).random((16, 8, 8))
        labels = make_rng(14).integers(0, 2, 16)
        proj = feature_projection([("a", a), ("b", b)], images, labels)
        feats = [vit.batch_features_tensor(model, images).data for model in (a, b)]
        pooled = np.concatenate(feats)
        centered = pooled - pooled.mean(axis=0, keepdims=True)
        s = svd(centered).s
        col_ss = (proj.coords**2).sum(axis=0)
        assert col_ss[0] == pytest.approx(s[0] ** 2, rel=1e-9)
        assert col_ss[1] == pytest.approx(s[1] ** 2, rel=1e-9)

    def test_a_list_of_arrays_projects_as_their_concatenation(self, two_models):
        # 50 + 100 + 37 images: chunks of 64 cross both array boundaries.
        a, b = two_models
        arrays = [make_rng(18, i).random((n, 8, 8)) for i, n in enumerate((50, 100, 37))]
        labels = make_rng(19).integers(0, 2, 187)
        listed = feature_projection([("a", a), ("b", b)], arrays, labels)
        whole = feature_projection([("a", a), ("b", b)], np.concatenate(arrays), labels)
        assert np.array_equal(listed.coords, whole.coords)
        assert np.array_equal(listed.labels, whole.labels) and listed.model_tags == whole.model_tags

    def test_degenerate_features_raise(self, two_models):
        model, _ = two_models
        images = np.zeros((5, 8, 8))
        with pytest.raises(DegenerateInputError):
            feature_projection([("a", model), ("same", model)], images, np.zeros(5, dtype=int))

    def test_label_count_must_match_image_count(self, two_models, monkeypatch):
        model, _ = two_models
        monkeypatch.setattr(vit, "features_batch", lambda *_: pytest.fail("forward ran"))
        images = make_rng(20).random((10, 8, 8))
        with pytest.raises(ShapeError, match="12 labels for 10 images"):
            feature_projection([("a", model)], images, np.zeros(12, dtype=int))
        with pytest.raises(ShapeError, match="12 labels for 10 images"):
            feature_projection([("a", model)], [images[:4], images[4:]], np.zeros(12, dtype=int))

    def test_needs_two_samples(self, two_models):
        model, _ = two_models
        with pytest.raises(ConfigError):
            feature_projection([("a", model)], np.zeros((1, 8, 8)), np.zeros(1, dtype=int))


def test_csv_exports_parse_with_declared_headers(tmp_path, two_models):
    a, _ = two_models
    rng = make_rng(15)
    report = weight_pc_report(rng.normal(size=(8, 8)), rng.normal(size=(8, 2)) @ rng.normal(size=(2, 8)), k=4)
    images = make_rng(16).random((6, 8, 8))
    labels = make_rng(17).integers(0, 2, 6)
    proj = feature_projection([("a", a)], images, labels)
    assert isinstance(proj, FeatureProjection)
    paths = cli._write_analysis_csvs(tmp_path, report, proj)
    assert [p.name for p in paths] == ["pc_evr.csv", "pc_cosine.csv", "feature_proj.csv"]
    with open(paths[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component", "evr"]
    assert len(rows) == 1 + len(report.evr_top_k)
    with open(paths[1]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "abs_cos"]
    assert len(rows) == 1 + report.pc_cosine.size
    with open(paths[2]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model_tag", "label", "x", "y"]
    assert len(rows) == 7
    float(rows[1][2])  # coordinates parse as floats
