"""A compact vision transformer whose attention query/value projections
are adapter hook points.

The layout is the usual pre-norm encoder: patch embedding with a class
token and learned positions, then blocks of layernorm, multi-head
attention, layernorm, and a GELU MLP, with residual connections. The
class-token embedding after a final layernorm feeds a linear head.
Since no other row reaches the head, the last block computes the class
token's row alone: it queries with that row against keys and values
from every token, and its output projection, residual, MLP and
layernorm run on that one row.

Only the adapter matrices and the head are ever trainable; everything
else is frozen by name (``is_trainable_name``, ``trainable_params``).
No tensor of a model needs a gradient: ``gradcheck.backward`` marks the
ones it differentiates for its own tape alone, so every other forward
records nothing. A model is single-writer: training mutates the
trainable tensors, while a no-grad forward only reads the model, so
``machine.map_split`` may hand slices of a forward's chunks of images
to forked children, which read the model as it was at the fork.

``named_params`` is the one list of parameter names and their order;
``_zeros`` holds the shapes. The names and order:

    patch_embed.w, patch_embed.b, class_token, pos_embed,
    blocks.{b}.ln1.scale, blocks.{b}.ln1.offset,
    blocks.{b}.attn.{wq|wk|wv|wo}.base, ....bias,
    blocks.{b}.attn.{wq|wv}.lora.A, ....B,
    blocks.{b}.ln2.scale, blocks.{b}.ln2.offset,
    blocks.{b}.mlp.fc1.w, ....b, blocks.{b}.mlp.fc2.w, ....b,
    final_ln.scale, final_ln.offset, head.w, head.b

where ``lora.A`` (N, r, k) and ``lora.B`` (N, d, r) are a group's stacks.
A checkpoint (``named_arrays``) keeps this order but holds each module's
slices in their place, ``lora.{i}.A`` then ``lora.{i}.B`` for i = 0, 1, ...
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adapters
from . import autograd as ag
from . import machine
from .adapters import AdaptedLinear, LoraGroup
from .autograd import Tensor
from .errors import CheckpointError, ConfigError, NumericError, ShapeError, check_field_types


@dataclass(frozen=True)
class VitConfig:
    image_size: int
    patch_size: int
    embed_dim: int
    num_blocks: int
    num_heads: int
    mlp_ratio: float = 4.0
    num_classes: int = 2

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.image_size <= 0 or self.patch_size <= 0 or self.image_size % self.patch_size != 0:
            raise ConfigError(f"image size {self.image_size} not divisible by patch size {self.patch_size}")
        if self.embed_dim <= 0 or self.num_heads <= 0 or self.embed_dim % self.num_heads != 0:
            raise ConfigError(f"embed dim {self.embed_dim} not divisible by {self.num_heads} heads")
        if self.num_blocks < 1:
            raise ConfigError("at least one block is required")
        if self.num_classes < 2:
            raise ConfigError("at least two classes are required")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp ratio must be positive, got {self.mlp_ratio}")
        if self.hidden_dim < 1:
            raise ConfigError(f"mlp ratio {self.mlp_ratio} at embed dim {self.embed_dim} gives a hidden width of 0")

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def seq_len(self) -> int:
        return self.num_patches + 1

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def hidden_dim(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))


@dataclass
class Attention:
    wq: AdaptedLinear
    wk: AdaptedLinear
    wv: AdaptedLinear
    wo: AdaptedLinear


@dataclass
class Block:
    ln1_scale: Tensor
    ln1_offset: Tensor
    attn: Attention
    ln2_scale: Tensor
    ln2_offset: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor


@dataclass
class VitModel:
    cfg: VitConfig
    patch_w: Tensor
    patch_b: Tensor
    class_token: Tensor
    pos_embed: Tensor
    blocks: list[Block]
    final_ln_scale: Tensor
    final_ln_offset: Tensor
    head_w: Tensor
    head_b: Tensor


def is_trainable_name(name: str) -> bool:
    """Trainable means exactly the adapter pairs and the classifier head."""
    if name.startswith("head."):
        return True
    return ".lora." in name and name.endswith((".A", ".B"))


def named_params(model: VitModel):
    """Yield (name, tensor) pairs in a fixed canonical order, a group as its stacks ``...lora.A``, ``...lora.B``."""
    yield "patch_embed.w", model.patch_w
    yield "patch_embed.b", model.patch_b
    yield "class_token", model.class_token
    yield "pos_embed", model.pos_embed
    for b, blk in enumerate(model.blocks):
        yield f"blocks.{b}.ln1.scale", blk.ln1_scale
        yield f"blocks.{b}.ln1.offset", blk.ln1_offset
        for proj in ("wq", "wk", "wv", "wo"):
            lin = getattr(blk.attn, proj)
            yield f"blocks.{b}.attn.{proj}.base", lin.base
            yield f"blocks.{b}.attn.{proj}.bias", lin.bias
            if lin.group is not None:
                yield f"blocks.{b}.attn.{proj}.lora.A", lin.group.a
                yield f"blocks.{b}.attn.{proj}.lora.B", lin.group.b
        yield f"blocks.{b}.ln2.scale", blk.ln2_scale
        yield f"blocks.{b}.ln2.offset", blk.ln2_offset
        yield f"blocks.{b}.mlp.fc1.w", blk.fc1_w
        yield f"blocks.{b}.mlp.fc1.b", blk.fc1_b
        yield f"blocks.{b}.mlp.fc2.w", blk.fc2_w
        yield f"blocks.{b}.mlp.fc2.b", blk.fc2_b
    yield "final_ln.scale", model.final_ln_scale
    yield "final_ln.offset", model.final_ln_offset
    yield "head.w", model.head_w
    yield "head.b", model.head_b


def named_arrays(model: VitModel):
    """Yield (name, array) pairs in checkpoint order: ``named_params``' data, a group's
    stacks as their modules' views ``...lora.{i}.A``, ``...lora.{i}.B``, module by module."""
    params = named_params(model)
    for name, t in params:
        if name.endswith(".lora.A"):  # the B stack comes next
            (_, b), prefix = next(params), name[:-1]
            for i, (ai, bi) in enumerate(zip(t.data, b.data)):
                yield f"{prefix}{i}.A", ai
                yield f"{prefix}{i}.B", bi
        else:
            yield name, t.data


def trainable_params(model: VitModel) -> dict[str, Tensor]:
    return {n: t for n, t in named_params(model) if is_trainable_name(n)}


def _zeros(cfg: VitConfig, groups: dict[tuple[int, str], tuple[int, int]]) -> VitModel:
    """The model in ``cfg``'s shapes with every tensor zero. ``groups``
    maps the (block, projection) of each adapted projection to its
    group's (size, rank)."""
    d, hid = cfg.embed_dim, cfg.hidden_dim

    def z(*shape):
        return Tensor(np.zeros(shape))

    def lin(b, proj):
        n, r = groups.get((b, proj), (0, 0))
        group = LoraGroup(z(n, r, d), z(n, d, r)) if n else None
        return AdaptedLinear(z(d, d), z(1, d), group)

    def block(b):
        attn = Attention(*(lin(b, proj) for proj in ("wq", "wk", "wv", "wo")))
        return Block(z(1, d), z(1, d), attn, z(1, d), z(1, d), z(hid, d), z(1, hid), z(d, hid), z(1, d))

    blocks = [block(b) for b in range(cfg.num_blocks)]
    head = (z(cfg.num_classes, d), z(1, cfg.num_classes))
    return VitModel(cfg, z(d, cfg.patch_dim), z(1, d), z(1, d), z(cfg.seq_len, d), blocks, z(1, d), z(1, d), *head)


def init_vit(cfg: VitConfig, rng: np.random.Generator) -> VitModel:
    """Fresh model, every weight matrix Gaussian with std 0.02, biases zero,
    layernorm at identity. Weights are drawn in canonical order, so a seed
    pins the model."""
    model = _zeros(cfg, {})
    for name, t in named_params(model):
        if name.endswith(".scale"):
            t.data[...] = 1.0
        elif not name.endswith((".b", ".bias", ".offset")):
            t.data[...] = rng.normal(0.0, 0.02, t.data.shape)
    return model


def inject_groups(model: VitModel, rank: int, n: int, rng: np.random.Generator) -> None:
    """Attach a fresh adapter group to the ``ADAPTED_PROJECTIONS`` (query,
    value) of every block; keys, outputs, MLPs, embeddings never get one."""
    d = model.cfg.embed_dim
    for blk in model.blocks:
        for proj in adapters.ADAPTED_PROJECTIONS:
            getattr(blk.attn, proj).group = adapters.init_group(d, d, rank, n, rng)


def model_to_arrays(model: VitModel) -> dict[str, np.ndarray]:
    return {name: np.array(arr) for name, arr in named_arrays(model)}


def model_from_arrays(cfg: VitConfig, arrays: dict[str, np.ndarray]) -> VitModel:
    """Rebuild a model from named tensors, groups from the ``...lora.{i}.A/B``
    names of ``ADAPTED_PROJECTIONS``. A missing, wrong-shaped or unknown
    tensor, or a group rank outside [1, embed dim], raises ``CheckpointError``."""
    groups = {}
    for b in range(cfg.num_blocks):
        for proj in adapters.ADAPTED_PROJECTIONS:
            prefix = f"blocks.{b}.attn.{proj}"
            n = 0
            while f"{prefix}.lora.{n}.A" in arrays:
                n += 1
            if n:
                r = np.atleast_1d(arrays[f"{prefix}.lora.0.A"]).shape[0]
                if not 1 <= r <= cfg.embed_dim:
                    raise CheckpointError(f"tensor {prefix}.lora.0.A has rank {r}, outside [1, {cfg.embed_dim}]")
                groups[b, proj] = (n, r)
    model = _zeros(cfg, groups)
    unused = set(arrays)
    for name, view in named_arrays(model):
        if name not in arrays:
            raise CheckpointError(f"incomplete model: no tensor {name}")
        arr = np.asarray(arrays[name])
        if arr.shape != view.shape:
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {view.shape}")
        view[...] = arr
        unused.discard(name)
    if unused:
        raise CheckpointError(f"unknown tensors {sorted(unused)}")
    return model


def clone(model: VitModel) -> VitModel:
    return copy.deepcopy(model)


def extract_patches(images: np.ndarray, patch: int) -> np.ndarray:
    """(batch, H, W) images to (batch, patches, patch*patch) rows."""
    bs, hh, ww = images.shape
    gh, gw = hh // patch, ww // patch
    x = images.reshape(bs, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 2, 4).reshape(bs, gh * gw, patch * patch)
    return np.ascontiguousarray(x)


def _linear(x: Tensor, lin: AdaptedLinear) -> Tensor:
    group = (lin.group.a, lin.group.b) if lin.group is not None else ()
    return ag.linear(x, lin.base, lin.bias, *group)


def _attention(x: Tensor, block: Block, cfg: VitConfig, last: bool) -> Tensor:
    """The attention sublayer ``x + wo(attn(ln1(x)))``. Each intermediate dies
    after its last reader, so a forward without a tape holds only live arrays."""
    h, dh = cfg.num_heads, cfg.head_dim

    def split(t, axes):
        return ag.transpose(ag.reshape(t, t.shape[:2] + (h, dh)), axes)

    kv_in = ag.layernorm(x, block.ln1_scale, block.ln1_offset)
    # Only the class-token row reaches the logits, so the last block
    # queries with that row alone and carries only it onwards; keys and
    # values still come from every token.
    x, q_in = (ag.narrow(x, 1, 0, 1), ag.narrow(kv_in, 1, 0, 1)) if last else (x, kv_in)
    q = split(_linear(q_in, block.attn.wq), (0, 2, 1, 3))
    # The keys go straight to (bs, h, dh, n), so q k^T is a plain product.
    k = split(_linear(kv_in, block.attn.wk), (0, 2, 3, 1))
    v = split(_linear(kv_in, block.attn.wv), (0, 2, 1, 3))
    del kv_in, q_in
    probs = ag.attention_probs(q, k, 1.0 / math.sqrt(dh))
    del q, k
    ctx = ag.reshape(ag.transpose(ag.matmul(probs, v), (0, 2, 1, 3)), x.shape)
    del probs, v
    return ag.add(x, _linear(ctx, block.attn.wo))


def _check_images(cfg: VitConfig, images) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[1:] != (cfg.image_size, cfg.image_size):
        raise ShapeError(
            f"expected images of shape (batch, {cfg.image_size}, {cfg.image_size}), got {images.shape}"
        )
    return images


def batch_features_tensor(model: VitModel, images: np.ndarray) -> Tensor:
    """Class-token embeddings after the final layernorm, (batch, d)."""
    cfg = model.cfg
    images = _check_images(cfg, images)
    bs, d = images.shape[0], cfg.embed_dim
    patches = extract_patches(images, cfg.patch_size)
    x = ag.embed(patches, model.patch_w, model.patch_b, model.class_token, model.pos_embed)
    last = len(model.blocks) - 1
    for b, block in enumerate(model.blocks):
        x = _attention(x, block, cfg, b == last)
        x = ag.mlp(x, block.ln2_scale, block.ln2_offset, block.fc1_w, block.fc1_b, block.fc2_w, block.fc2_b)
    return ag.layernorm(ag.reshape(x, (bs, d)), model.final_ln_scale, model.final_ln_offset)


def batch_logits_tensor(model: VitModel, images: np.ndarray) -> Tensor:
    feats = batch_features_tensor(model, images)
    return ag.linear(feats, model.head_w, model.head_b)


class LossTerms(NamedTuple):
    """The objective on one batch and the tape tensors of its parts.

    ``total`` is ``ce + alpha * (preserve + diversify)`` over the
    penalties left on; with ``alpha`` 0 or both masked off it is ``ce``.
    Both penalties are on the tape either way, so their values describe
    the same parameters as ``ce``. A penalty is None only for a model
    without groups.
    """

    total: Tensor
    ce: Tensor
    preserve: Tensor | None
    diversify: Tensor | None


def batch_loss_tensor(
    model: VitModel,
    images: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    preserve_on: bool = True,
    diversify_on: bool = True,
) -> LossTerms:
    ce = ag.cross_entropy_mean(batch_logits_tensor(model, images), labels)
    preserve, diversify = adapters.loss_or_tensor(model)
    terms = [t for t, on in ((preserve, preserve_on), (diversify, diversify_on)) if on and t is not None]
    total = ce
    if terms and alpha != 0.0:
        reg = terms[0] if len(terms) == 1 else ag.add(*terms)
        total = ag.add(ce, ag.scale(reg, alpha))
    return LossTerms(total, ce, preserve, diversify)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
    return arr


# Images per no-grad forward, and the unit of its split. A process holds
# one chunk at a time: it reads its images in place, copying only a chunk
# that spans two arrays, and ``ag.mlp`` runs a chunk's hidden layer in
# blocks of ``ag.MLP_BLOCK``. Chunks bound the memory of a large batch, and
# their activations stay in cache: on the canonical model (2-core Xeon,
# OpenBLAS on one thread), one process took 13.5 ms for 240 images and
# 85.6 ms for 1600 in chunks of 64, against 13.7 and 100.0 ms in one
# forward and 13.9 and 95.5 ms in chunks of 32 (medians of 40 interleaved
# rounds in one process).
#
# A forward gives each worker at least FORWARD_CHUNKS_PER_WORKER chunks.
# Back to back, a forked second worker sped a forward up 1.03x at 4
# chunks, 1.14x at 7, 1.26x at 10, 1.38x at 16 and 1.60x at 25 (same
# rounds; an earlier run of 20 rounds read 0.76x at 4 and 1.13-1.15x from
# 16 up, as the shared box's load moved). Right after 50 training steps a
# 240-image validation pass split in two took 22.2 ms against 11.9 ms in
# one process (medians of 30 interleaved rounds). So the floor follows the
# callers: training's validation and held-out passes (4 and 7 chunks) stay
# in one process, while reading a whole dataset (25 chunks) splits. The
# reading process still holds one chunk's activations at a time: a split
# 1600-image forward's traced peak there is 1970 KiB.
FORWARD_CHUNK = 64
FORWARD_CHUNKS_PER_WORKER = 8


def _no_grad_chunks(forward, model: VitModel, images) -> np.ndarray:
    """``forward(model, chunk)`` without a tape over chunks of
    ``FORWARD_CHUNK`` images, concatenated in order. ``images`` is one
    array or a list of arrays read as their concatenation, which is never
    made: a chunk is a view into one array, and only a chunk that spans
    two arrays is copied. ``machine.map_split`` cuts the chunks into
    ``min(machine.thread_budget(), chunks // FORWARD_CHUNKS_PER_WORKER)``
    contiguous slices, computes the first here and forks a child for
    each other one, or computes every chunk here when that is 1 or less;
    each chunk is computed exactly as in one process, so the result is
    bitwise the same."""
    parts = [_check_images(model.cfg, p) for p in (images if isinstance(images, list) and images else [images])]
    offsets = np.cumsum([0] + [len(p) for p in parts]).tolist()
    starts = range(0, max(offsets[-1], 1), FORWARD_CHUNK)

    def run(s):
        stop = s + FORWARD_CHUNK
        pieces = [p[max(s - o, 0) : stop - o] for p, o in zip(parts, offsets) if o < stop and s < o + len(p)]
        chunk = pieces[0] if len(pieces) == 1 else np.concatenate(pieces or parts[:1])
        return forward(model, chunk).data

    return np.concatenate(machine.map_split(run, starts, FORWARD_CHUNKS_PER_WORKER))


def features_batch(model: VitModel, images) -> np.ndarray:
    """Class-token features per image, the head's input, without a tape;
    ``images`` is one array or a list of them, as in ``_no_grad_chunks``."""
    return _no_grad_chunks(batch_features_tensor, model, images)


def forward_logits_batch(model: VitModel, images) -> np.ndarray:
    """Logits per image of one array or a list of them, without a tape."""
    return _check_finite(_no_grad_chunks(batch_logits_tensor, model, images), "logits")


def predict_batch(model: VitModel, images) -> np.ndarray:
    """Argmax class per image of one array or a list of them; ties
    resolve to the lowest class index."""
    return np.argmax(forward_logits_batch(model, images), axis=1)
