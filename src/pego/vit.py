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
else is frozen by name. A model is single-writer: training mutates the
trainable tensors from one thread, while read-only inference on an
unchanging model may run from many.

Parameter names (also the checkpoint tensor names):

    patch_embed.w, patch_embed.b, class_token, pos_embed,
    blocks.{b}.ln1.scale, blocks.{b}.ln1.offset,
    blocks.{b}.attn.{wq|wk|wv|wo}.base, ....bias,
    blocks.{b}.attn.{wq|wv}.lora.{i}.A, ....B,
    blocks.{b}.ln2.scale, blocks.{b}.ln2.offset,
    blocks.{b}.mlp.fc1.w, ....b, blocks.{b}.mlp.fc2.w, ....b,
    final_ln.scale, final_ln.offset, head.w, head.b
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adapters
from . import autograd as ag
from .adapters import AdaptedLinear, LoraGroup, LoraModule
from .autograd import Tensor
from .errors import ConfigError, NumericError, ShapeError


@dataclass(frozen=True)
class VitConfig:
    image_size: int
    patch_size: int
    embed_dim: int
    num_blocks: int
    num_heads: int
    mlp_ratio: float = 4.0
    num_classes: int = 2

    def validate(self) -> None:
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

    def has_adapters(self) -> bool:
        return any(blk.attn.wq.group or blk.attn.wv.group for blk in self.blocks)


def is_trainable_name(name: str) -> bool:
    """Trainable means exactly the adapter pairs and the classifier head."""
    if name.startswith("head."):
        return True
    return ".lora." in name and name.endswith((".A", ".B"))


def named_params(model: VitModel):
    """Yield (name, tensor) pairs in a fixed canonical order."""
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
                for i, mod in enumerate(lin.group.modules):
                    yield f"blocks.{b}.attn.{proj}.lora.{i}.A", mod.a
                    yield f"blocks.{b}.attn.{proj}.lora.{i}.B", mod.b
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


def get_param(model: VitModel, name: str) -> Tensor:
    for n, t in named_params(model):
        if n == name:
            return t
    raise KeyError(name)


def apply_trainability(model: VitModel) -> None:
    for name, t in named_params(model):
        t.requires_grad = is_trainable_name(name)


def trainable_params(model: VitModel) -> dict[str, Tensor]:
    return {n: t for n, t in named_params(model) if is_trainable_name(n)}


def init_vit(cfg: VitConfig, rng: np.random.Generator) -> VitModel:
    """Fresh model, every weight matrix Gaussian with std 0.02, biases zero,
    layernorm at identity. The draw order is fixed, so a seed pins the model."""
    cfg.validate()
    d = cfg.embed_dim

    def w(*shape):
        return Tensor(rng.normal(0.0, 0.02, shape))

    def zeros(*shape):
        return Tensor(np.zeros(shape))

    def ones(*shape):
        return Tensor(np.ones(shape))

    patch_w = w(d, cfg.patch_dim)
    class_token = w(1, d)
    pos_embed = w(cfg.seq_len, d)
    blocks = []
    for _ in range(cfg.num_blocks):
        attn = Attention(
            wq=AdaptedLinear(w(d, d), zeros(1, d)),
            wk=AdaptedLinear(w(d, d), zeros(1, d)),
            wv=AdaptedLinear(w(d, d), zeros(1, d)),
            wo=AdaptedLinear(w(d, d), zeros(1, d)),
        )
        blocks.append(
            Block(
                ln1_scale=ones(1, d),
                ln1_offset=zeros(1, d),
                attn=attn,
                ln2_scale=ones(1, d),
                ln2_offset=zeros(1, d),
                fc1_w=w(cfg.hidden_dim, d),
                fc1_b=zeros(1, cfg.hidden_dim),
                fc2_w=w(d, cfg.hidden_dim),
                fc2_b=zeros(1, d),
            )
        )
    model = VitModel(
        cfg=cfg,
        patch_w=patch_w,
        patch_b=zeros(1, d),
        class_token=class_token,
        pos_embed=pos_embed,
        blocks=blocks,
        final_ln_scale=ones(1, d),
        final_ln_offset=zeros(1, d),
        head_w=w(cfg.num_classes, d),
        head_b=zeros(1, cfg.num_classes),
    )
    apply_trainability(model)
    return model


def inject_groups(model: VitModel, rank: int, n: int, rng: np.random.Generator) -> None:
    """Attach a fresh adapter group to the query and value projection of
    every block; keys, outputs, MLPs, and embeddings never get one."""
    d = model.cfg.embed_dim
    for blk in model.blocks:
        blk.attn.wq.group = adapters.init_group(d, d, rank, n, rng)
        blk.attn.wv.group = adapters.init_group(d, d, rank, n, rng)
    apply_trainability(model)


def model_to_arrays(model: VitModel) -> dict[str, np.ndarray]:
    return {name: np.array(t.data) for name, t in named_params(model)}


def model_from_arrays(cfg: VitConfig, arrays: dict[str, np.ndarray]) -> VitModel:
    """Rebuild a model from named tensors; adapter groups are recovered
    from the presence of ``...lora.{i}.A/B`` names."""

    def t(name):
        return Tensor(np.array(arrays[name]))

    def lin(prefix):
        layer = AdaptedLinear(t(f"{prefix}.base"), t(f"{prefix}.bias"))
        modules = []
        i = 0
        while f"{prefix}.lora.{i}.A" in arrays:
            modules.append(LoraModule(a=t(f"{prefix}.lora.{i}.A"), b=t(f"{prefix}.lora.{i}.B")))
            i += 1
        if modules:
            layer.group = LoraGroup(modules=modules)
        return layer

    blocks = []
    for b in range(cfg.num_blocks):
        p = f"blocks.{b}"
        blocks.append(
            Block(
                ln1_scale=t(f"{p}.ln1.scale"),
                ln1_offset=t(f"{p}.ln1.offset"),
                attn=Attention(
                    wq=lin(f"{p}.attn.wq"),
                    wk=lin(f"{p}.attn.wk"),
                    wv=lin(f"{p}.attn.wv"),
                    wo=lin(f"{p}.attn.wo"),
                ),
                ln2_scale=t(f"{p}.ln2.scale"),
                ln2_offset=t(f"{p}.ln2.offset"),
                fc1_w=t(f"{p}.mlp.fc1.w"),
                fc1_b=t(f"{p}.mlp.fc1.b"),
                fc2_w=t(f"{p}.mlp.fc2.w"),
                fc2_b=t(f"{p}.mlp.fc2.b"),
            )
        )
    model = VitModel(
        cfg=cfg,
        patch_w=t("patch_embed.w"),
        patch_b=t("patch_embed.b"),
        class_token=t("class_token"),
        pos_embed=t("pos_embed"),
        blocks=blocks,
        final_ln_scale=t("final_ln.scale"),
        final_ln_offset=t("final_ln.offset"),
        head_w=t("head.w"),
        head_b=t("head.b"),
    )
    apply_trainability(model)
    return model


def clone(model: VitModel) -> VitModel:
    return model_from_arrays(model.cfg, model_to_arrays(model))


def extract_patches(images: np.ndarray, patch: int) -> np.ndarray:
    """(batch, H, W) images to (batch, patches, patch*patch) rows."""
    bs, hh, ww = images.shape
    gh, gw = hh // patch, ww // patch
    x = images.reshape(bs, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 2, 4).reshape(bs, gh * gw, patch * patch)
    return np.ascontiguousarray(x)


def _linear(x: Tensor, lin: AdaptedLinear) -> Tensor:
    a, b = lin.group.factors() if lin.group is not None else ((), ())
    return ag.linear(x, lin.base, lin.bias, a, b)


def _attention(q_in: Tensor, x: Tensor, block: Block, cfg: VitConfig) -> Tensor:
    """Multi-head attention of the query rows ``q_in`` over all tokens ``x``."""
    bs, n, d = x.data.shape
    nq = q_in.data.shape[1]
    h, dh = cfg.num_heads, cfg.head_dim

    def split(t, rows):
        return ag.transpose(ag.reshape(t, (bs, rows, h, dh)), (0, 2, 1, 3))

    q = split(_linear(q_in, block.attn.wq), nq)
    k = split(_linear(x, block.attn.wk), n)
    v = split(_linear(x, block.attn.wv), n)
    scores = ag.scale(ag.matmul(q, k, transpose_b=True), 1.0 / math.sqrt(dh))
    probs = ag.softmax_last(scores)
    ctx = ag.reshape(ag.transpose(ag.matmul(probs, v), (0, 2, 1, 3)), (bs, nq, d))
    return _linear(ctx, block.attn.wo)


def _block_forward(x: Tensor, block: Block, cfg: VitConfig, last: bool) -> Tensor:
    h = ag.layernorm(x, block.ln1_scale, block.ln1_offset)
    q_in = h
    if last:
        # Only the class-token row reaches the logits, so the last block
        # queries with that row alone and carries only it onwards; keys
        # and values still come from every token.
        x, q_in = ag.narrow(x, 1, 0, 1), ag.narrow(h, 1, 0, 1)
    x = ag.add(x, _attention(q_in, h, block, cfg))
    m = ag.layernorm(x, block.ln2_scale, block.ln2_offset)
    # Two statements, so the layernorm output is freed before GELU runs.
    m = ag.linear(m, block.fc1_w, block.fc1_b)
    m = ag.gelu(m)
    m = ag.linear(m, block.fc2_w, block.fc2_b)
    return ag.add(x, m)


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
    bs = images.shape[0]
    d = cfg.embed_dim
    patches = ag.constant(extract_patches(images, cfg.patch_size))
    x = ag.linear(patches, model.patch_w, model.patch_b)
    cls = ag.broadcast_to(ag.reshape(model.class_token, (1, 1, d)), (bs, 1, d))
    x = ag.concat(cls, x, axis=1)
    x = ag.add(x, model.pos_embed)
    last = len(model.blocks) - 1
    for b, block in enumerate(model.blocks):
        x = _block_forward(x, block, cfg, b == last)
    return ag.layernorm(ag.reshape(x, (bs, d)), model.final_ln_scale, model.final_ln_offset)


def batch_logits_tensor(model: VitModel, images: np.ndarray) -> Tensor:
    feats = batch_features_tensor(model, images)
    return ag.linear(feats, model.head_w, model.head_b)


class LossTerms(NamedTuple):
    """The objective on one batch and the tape tensors of its parts.

    ``total`` is ``ce + alpha * (preserve + diversify)`` over the
    penalties left on; with ``alpha`` 0 or both masked off it is ``ce``.
    Both penalties are on the tape either way, so their values describe
    the same parameters as ``ce``. A penalty is None only when no layer
    carries a group (for diversify, a group of two or more modules).
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


# Images per no-grad forward. Chunks bound the memory of a large batch,
# and their activations stay in cache: on the canonical model (2-core
# Xeon, OpenBLAS), 400 images took 75 ms in one forward and 50-52 ms in
# chunks of 32 to 100 (medians of 40 shuffled runs); 1600 images took
# 311 ms against 214-219 ms.
FORWARD_CHUNK = 64


def _no_grad_chunks(forward, model: VitModel, images: np.ndarray) -> np.ndarray:
    """``forward(model, chunk)`` without a tape over chunks of
    ``FORWARD_CHUNK`` images, concatenated."""
    images = _check_images(model.cfg, images)
    with ag.no_grad():
        chunks = [
            forward(model, images[s : s + FORWARD_CHUNK]).data for s in range(0, max(len(images), 1), FORWARD_CHUNK)
        ]
    return np.concatenate(chunks)


def features_batch(model: VitModel, images: np.ndarray) -> np.ndarray:
    """Class-token features per image, the head's input, without a tape."""
    return _no_grad_chunks(batch_features_tensor, model, images)


def forward_logits_batch(model: VitModel, images: np.ndarray) -> np.ndarray:
    """Logits per image, without a tape."""
    return _check_finite(_no_grad_chunks(batch_logits_tensor, model, images), "logits")


def predict_batch(model: VitModel, images: np.ndarray) -> np.ndarray:
    """Argmax class per image; ties resolve to the lowest class index."""
    return np.argmax(forward_logits_batch(model, images), axis=1)
