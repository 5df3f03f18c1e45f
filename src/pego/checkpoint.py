"""Single-file binary container for models and datasets.

Layout, all integers little-endian:

    magic ``PEGO`` | u32 format version | u64 header length | header JSON
    | u64 tensor count | per tensor: u64 name length, name (UTF-8),
      u64 ndim, u64 dims..., row-major IEEE-754 payload

Payloads are always f64, and the header's ``dtype`` flag says so; a file
with any other flag is rejected on load. ``atomic_write`` writes every
file the package writes, these and the command line's manifests and CSVs:
a reader sees the old file or the whole new one, and a failed write
removes its temp file and raises ``CheckpointError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct

import numpy as np

from .data import DomainDataset
from .errors import CheckpointError, ConfigError
from .vit import VitConfig, VitModel, model_from_arrays, model_to_arrays

MAGIC = b"PEGO"
FORMAT_VERSION = 1
_F64 = np.dtype("<f8")


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield ``<path>.tmp`` open for writing, binary or UTF-8 text with
    ``\\n`` line ends, and rename it over ``path`` when the block ends. On
    any error remove the temp file, if this call created it, and raise an
    ``OSError`` as ``CheckpointError``."""
    tmp, fh = f"{path}.tmp", None
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if fh is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise CheckpointError(f"cannot write {path}: {exc}") from exc
        raise


def write_container(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    header = dict(header, dtype="f64", format_version=FORMAT_VERSION)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob)
        fh.write(struct.pack("<Q", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)) + encoded)
            fh.write(struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_F64).tobytes())


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.off = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Step over the next ``n`` bytes, which must be there; their offset."""
        if self.off + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated (needed {n} bytes at offset {self.off})")
        self.off += n
        return self.off - n

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.buf[start : start + n]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        header = json.loads(r.take(r.u64()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header: a {type(header).__name__}, not a JSON object")
    dtype = header.get("dtype", "f64")
    if dtype != "f64":
        raise CheckpointError(f"{path}: unsupported dtype flag {dtype!r}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u64()):
        raw_name = r.take(r.u64())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name {raw_name!r} is not UTF-8") from exc
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} is stored twice")
        ndim = r.u64()
        if ndim > 8:
            raise CheckpointError(f"{path}: implausible rank {ndim} for tensor {name}")
        shape = tuple(r.u64() for _ in range(ndim))
        count = math.prod(shape)
        offset = r.skip(count * _F64.itemsize)  # Python ints: no int64 wrap-around
        # A view of the file's bytes, so its one copy is astype's.
        tensors[name] = np.frombuffer(buf, _F64, count, offset).astype(np.float64).reshape(shape)
    if r.off != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.off} bytes after the last tensor")
    return header, tensors


def save_model(path, model: VitModel) -> None:
    header = {"kind": "model", "config": dataclasses.asdict(model.cfg)}
    write_container(path, header, model_to_arrays(model))


def load_model(path) -> VitModel:
    header, tensors = read_container(path)
    if header.get("kind") != "model":
        raise CheckpointError(f"{path}: expected a model checkpoint, found kind {header.get('kind')!r}")
    try:
        cfg = VitConfig(**header["config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from exc
    try:
        return model_from_arrays(cfg, tensors)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def save_dataset(path, dataset: DomainDataset) -> None:
    header = {
        "kind": "dataset",
        "config": {"num_classes": dataset.num_classes, "domains": list(dataset.domains)},
    }
    tensors: dict[str, np.ndarray] = {}
    for dom in dataset.domains:
        tensors[f"domain.{dom}.images"] = dataset.images[dom]
        tensors[f"domain.{dom}.labels"] = dataset.labels[dom].astype(np.float64)
    write_container(path, header, tensors)


def load_dataset(path) -> DomainDataset:
    header, tensors = read_container(path)
    if header.get("kind") != "dataset":
        raise CheckpointError(f"{path}: expected a dataset file, found kind {header.get('kind')!r}")
    try:
        domains, num_classes = header["config"]["domains"], header["config"]["num_classes"]
        if not (isinstance(domains, list) and all(isinstance(d, str) for d in domains)):
            raise CheckpointError(f"{path}: bad dataset config: domains must be a list of names, got {domains!r}")
        if type(num_classes) is not int or num_classes < 2:
            raise CheckpointError(f"{path}: bad dataset config: num_classes must be an int >= 2, got {num_classes!r}")
        images = {dom: tensors[f"domain.{dom}.images"] for dom in domains}
        labels = {dom: tensors[f"domain.{dom}.labels"] for dom in domains}
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: incomplete dataset file: {exc}") from exc
    unknown = set(tensors) - {f"domain.{dom}.{part}" for dom in domains for part in ("images", "labels")}
    if unknown:
        raise CheckpointError(f"{path}: unknown tensors {sorted(unknown)}, not in the header's domains {domains}")
    for dom, raw in labels.items():
        if not (np.isfinite(raw).all() and np.array_equal(raw, np.floor(raw))):
            raise CheckpointError(f"{path}: bad dataset: domain {dom} has labels that are not whole numbers")
        labels[dom] = raw.astype(np.int64)
    ds = DomainDataset(domains=domains, images=images, labels=labels, num_classes=num_classes)
    try:
        ds.validate()
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad dataset: {exc}") from exc
    return ds
