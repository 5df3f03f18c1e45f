import re
import struct

import numpy as np
import pytest

from pego import adapters, checkpoint, vit
from pego.checkpoint import load_dataset, load_model, read_container, save_dataset, save_model, write_container
from pego.data import DatasetSpec, generate_dataset
from pego.errors import CheckpointError
from pego.numerics import make_rng
from pego.vit import VitConfig, init_vit, inject_groups


def _model(seed=0, with_adapters=True):
    cfg = VitConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2, num_heads=2, mlp_ratio=2.0, num_classes=3)
    model = init_vit(cfg, make_rng(seed))
    if with_adapters:
        inject_groups(model, rank=2, n=2, rng=make_rng(seed, 1))
        rng = make_rng(seed, 2)
        for name, arr in vit.named_arrays(model):
            if ".lora." in name:
                arr[...] = rng.normal(0, 0.1, arr.shape)
    return model


def test_model_roundtrip_is_bitwise_for_f64(tmp_path):
    model = _model()
    path = tmp_path / "m.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.cfg == model.cfg
    for (name, ta), (_, tb) in zip(vit.named_params(model), vit.named_params(loaded)):
        assert np.array_equal(ta.data, tb.data), name
        assert ta.requires_grad == tb.requires_grad


def test_payload_dtype_flag_other_than_f64_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, _model())
    blob = path.read_bytes()
    assert blob.count(b'"dtype":"f64"') == 1
    for flag in (b"f32", b"i64"):
        bad = tmp_path / f"{flag.decode()}.ckpt"
        bad.write_bytes(blob.replace(b'"dtype":"f64"', b'"dtype":"' + flag + b'"'))
        with pytest.raises(CheckpointError, match="dtype"):
            load_model(bad)


def test_save_is_deterministic(tmp_path):
    model = _model()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_model(a, model)
    save_model(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_adapterless_model_roundtrip(tmp_path):
    model = _model(with_adapters=False)
    path = tmp_path / "plain.ckpt"
    save_model(path, model)
    assert adapters.adapted_layers(load_model(path)) == []


def test_dataset_roundtrip(tmp_path):
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=4), seed=3)
    path = tmp_path / "d.ckpt"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.domains == ds.domains
    assert loaded.num_classes == ds.num_classes
    for dom in ds.domains:
        assert np.array_equal(loaded.images[dom], ds.images[dom])
        assert np.array_equal(loaded.labels[dom], ds.labels[dom])
        assert loaded.labels[dom].dtype == np.int64


@pytest.mark.parametrize(
    "field, value",
    [("num_classes", "two"), ("num_classes", None), ("num_classes", 2.7), ("domains", 5)],
)
def test_an_invalid_dataset_header_is_rejected(tmp_path, field, value):
    # a field of the wrong type fails with the path named, not with a
    # ValueError or TypeError, and a fractional class count is not truncated
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=4), seed=3)
    path = tmp_path / "d.ckpt"
    save_dataset(path, ds)
    header, tensors = read_container(path)
    header["config"][field] = value
    write_container(path, header, tensors)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: bad dataset config: {field}"):
        load_dataset(path)


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("images", lambda x: x[:2], r"images of shape \(2, 8, 8\) for labels of shape \(8,\)"),
        ("images", lambda x: x.reshape(len(x), -1), r"images of shape \(8, 64\)"),
        ("images", lambda x: x[:, :4, :4], r"images of shape \(8, 4, 4\)"),
        ("labels", lambda y: y[:, None], r"labels of shape \(8, 1\)"),
        ("labels", lambda y: y + 0.7, "labels that are not whole numbers"),
        ("labels", lambda y: np.where(y == 1, np.nan, y), "labels that are not whole numbers"),
        ("labels", lambda y: np.where(y == 1, np.inf, y), "labels that are not whole numbers"),
        ("labels", lambda y: y * 2, r"has classes \[0, 2\], expected 0 to 1"),
        ("images", lambda x: np.where(np.arange(x.size).reshape(x.shape) == 5, np.nan, x), "non-finite pixels"),
        ("domains", lambda names: names + ["d1"], "listed more than once"),
    ],
    ids=[
        "short-images",
        "flat-images",
        "other-size",
        "column-labels",
        "fractional",
        "nan",
        "inf",
        "unknown-class",
        "nan-pixel",
        "repeated-domain",
    ],
)
def test_a_dataset_whose_images_and_labels_disagree_is_rejected(tmp_path, name, change, message):
    # images (n, s, s) of finite pixels for n whole labels, one s for
    # every domain, each domain named once; the file's path is named, as
    # for a bad header
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=4, image_size=8), seed=3)
    path = tmp_path / "d.ckpt"
    save_dataset(path, ds)
    header, tensors = read_container(path)
    if name == "domains":
        header["config"]["domains"] = change(header["config"]["domains"])
    else:
        tensors[f"domain.d1.{name}"] = change(tensors[f"domain.d1.{name}"])
    write_container(path, header, tensors)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: bad dataset: domain d1 .*{message}"):
        load_dataset(path)


@pytest.mark.parametrize(
    "drop, extra",
    [("d2", []), (None, ["domain.d4.images"]), (None, ["notes"])],
    ids=["unlisted-domain", "extra-domain-tensor", "stray-name"],
)
def test_a_dataset_tensor_the_header_does_not_list_is_rejected(tmp_path, drop, extra):
    # a header listing d0, d1 and d3 must not load three domains and
    # silently leave d2's tensors behind; the file and the tensors are named
    ds = generate_dataset(DatasetSpec(domains=4, classes=2, per_class=4, image_size=8), seed=3)
    path = tmp_path / "d.ckpt"
    save_dataset(path, ds)
    header, tensors = read_container(path)
    header["config"]["domains"] = [d for d in header["config"]["domains"] if d != drop]
    tensors.update({name: np.zeros((2, 8, 8)) for name in extra})
    write_container(path, header, tensors)
    stray = [f"domain.{drop}.images", f"domain.{drop}.labels"] if drop else extra
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: unknown tensors {re.escape(str(stray))}"):
        load_dataset(path)


def test_container_preserves_names_shapes_and_header(tmp_path):
    path = tmp_path / "c.ckpt"
    tensors = {"x": np.arange(6.0).reshape(2, 3), "y.z": np.ones(4)}
    write_container(path, {"kind": "model", "dtype": "f64", "note": 1}, tensors)
    header, loaded = read_container(path)
    assert header["format_version"] == checkpoint.FORMAT_VERSION
    assert header["note"] == 1
    assert set(loaded) == {"x", "y.z"}
    assert np.array_equal(loaded["x"], tensors["x"])
    assert loaded["y.z"].shape == (4,)


@pytest.mark.parametrize("blocked", ["target", "temp"])
def test_a_failed_write_raises_and_removes_its_temp_file(tmp_path, blocked):
    path = tmp_path / "c.ckpt"
    (tmp_path / ("c.ckpt" if blocked == "target" else "c.ckpt.tmp")).mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(CheckpointError, match="cannot write"):
        write_container(path, {"kind": "model"}, {"x": np.ones(3)})
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_an_error_inside_the_block_keeps_the_old_file_and_removes_the_temp_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="crash"):
        with checkpoint.atomic_write(path) as fh:
            fh.write("new,partial")
            raise RuntimeError("crash")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


def test_corrupt_files_raise_checkpoint_errors(tmp_path):
    missing = tmp_path / "missing.ckpt"
    with pytest.raises(CheckpointError):
        read_container(missing)

    not_magic = tmp_path / "bad_magic.ckpt"
    not_magic.write_bytes(b"nope" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_container(not_magic)

    good = tmp_path / "good.ckpt"
    save_model(good, _model())
    blob = good.read_bytes()

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_container(truncated)

    bad_version = tmp_path / "vers.ckpt"
    bad_version.write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(CheckpointError, match="version"):
        read_container(bad_version)


def _records_at(blob):
    """The offset of a container's tensor count: past magic, version and header."""
    return 16 + struct.unpack("<Q", blob[8:16])[0]


def _name_not_utf8(blob):
    at = _records_at(blob) + 16  # past the count and the first name's length
    return blob[:at] + b"\xff" + blob[at + 1 :]


def _header_not_an_object(blob):
    return checkpoint.MAGIC + struct.pack("<IQ", checkpoint.FORMAT_VERSION, 6) + b"[1, 2]" + blob[_records_at(blob) :]


def _repeated_name(blob):
    at = _records_at(blob)
    count, records = struct.unpack("<Q", blob[at : at + 8])[0], blob[at + 8 :]
    assert count == 1
    return blob[:at] + struct.pack("<Q", 2) + records + records


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_name_not_utf8, "not UTF-8"),
        (_header_not_an_object, "not a JSON object"),
        (lambda blob: blob + b"\x00" * 7, "7 bytes after the last tensor"),
        (_repeated_name, "stored twice"),
    ],
    ids=["name-not-utf8", "header-not-an-object", "trailing-bytes", "repeated-name"],
)
def test_malformed_containers_raise_checkpoint_errors_naming_the_path(tmp_path, corrupt, message):
    good = tmp_path / "good.ckpt"
    write_container(good, {"kind": "model"}, {"x": np.arange(6.0).reshape(2, 3)})
    assert read_container(good)[1]["x"].shape == (2, 3)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(CheckpointError, match=re.escape(str(bad)) + ".*" + message):
        read_container(bad)


def test_dims_whose_product_overflows_int64_read_as_truncated(tmp_path):
    # 2**32 * 2**32 elements wrap to 0 in int64 arithmetic.
    path = tmp_path / "huge.ckpt"
    write_container(path, {"kind": "model"}, {"x": np.zeros((1, 1))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-24] + struct.pack("<QQ", 2**32, 2**32) + blob[-8:])
    with pytest.raises(CheckpointError, match="truncated"):
        read_container(path)


def test_kind_mismatch(tmp_path):
    ds = generate_dataset(DatasetSpec(domains=3, classes=2, per_class=2), seed=1)
    path = tmp_path / "d.ckpt"
    save_dataset(path, ds)
    with pytest.raises(CheckpointError, match="kind"):
        load_model(path)
    mpath = tmp_path / "m.ckpt"
    save_model(mpath, _model())
    with pytest.raises(CheckpointError, match="kind"):
        load_dataset(mpath)


def test_missing_tensor_is_reported(tmp_path):
    model = _model(with_adapters=False)
    arrays = vit.model_to_arrays(model)
    del arrays["head.w"]
    path = tmp_path / "incomplete.ckpt"
    write_container(path, {"kind": "model", "dtype": "f64", "config": model.cfg.__dict__}, arrays)
    with pytest.raises(CheckpointError, match="incomplete"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_heads", 3),
        ("embed_dim", "8"),
        ("num_blocks", 2.0),
        ("mlp_ratio", None),
        ("patch_size", True),
        ("mlp_ratio", 0.01),
    ],
)
def test_an_invalid_config_in_the_header_is_rejected(tmp_path, field, value):
    # a head count that does not divide the width, a field of the wrong
    # type, or an mlp ratio whose hidden width rounds to 0
    model = _model()
    path = tmp_path / "cfg.ckpt"
    header = {"kind": "model", "config": dict(model.cfg.__dict__, **{field: value})}
    write_container(path, header, vit.model_to_arrays(model))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: bad model config"):
        load_model(path)


@pytest.mark.parametrize(
    "extra",
    ["blocks.0.attn.wq.lora.0.C", "blocks.0.attn.wk.lora.0.A", "blocks.0.attn.wq.lora.3.A", "blocks.2.ln1.scale"],
)
def test_unknown_tensor_name_is_rejected(tmp_path, extra):
    # names the config does not produce, including an adapter on a
    # projection that never carries one and a module beyond a gap in the group
    model = _model()
    arrays = vit.model_to_arrays(model)
    arrays[extra] = np.zeros((2, 8))
    path = tmp_path / "extra.ckpt"
    write_container(path, {"kind": "model", "dtype": "f64", "config": model.cfg.__dict__}, arrays)
    with pytest.raises(CheckpointError, match=f"unknown tensors.*{re.escape(extra)}"):
        load_model(path)


def test_wrong_shaped_adapter_is_rejected(tmp_path):
    model = _model()
    arrays = vit.model_to_arrays(model)
    arrays["blocks.1.attn.wv.lora.1.B"] = np.zeros((8, 3))
    path = tmp_path / "shape.ckpt"
    write_container(path, {"kind": "model", "dtype": "f64", "config": model.cfg.__dict__}, arrays)
    with pytest.raises(CheckpointError, match=r"blocks\.1\.attn\.wv\.lora\.1\.B has shape \(8, 3\), expected \(8, 2\)"):
        load_model(path)


@pytest.mark.parametrize("rank", [0, 9])
def test_adapter_rank_outside_one_to_embed_dim_is_rejected(tmp_path, rank):
    # a group of rank 0 or above the embed dim (8) has shapes that agree
    # with one another, but ``init_group`` could never have made it
    model = _model()
    arrays = {n: a for n, a in vit.model_to_arrays(model).items() if ".lora." not in n}
    for i in range(2):
        arrays[f"blocks.0.attn.wq.lora.{i}.A"] = np.zeros((rank, 8))
        arrays[f"blocks.0.attn.wq.lora.{i}.B"] = np.zeros((8, rank))
    path = tmp_path / "rank.ckpt"
    write_container(path, {"kind": "model", "dtype": "f64", "config": model.cfg.__dict__}, arrays)
    with pytest.raises(CheckpointError, match=rf"blocks\.0\.attn\.wq\.lora\.0\.A has rank {rank}, outside \[1, 8\]"):
        load_model(path)
