"""Multi-head self-attention and a transformer encoder block.

These power the ``TinyTransformer`` BERT-proxy used for the GLUE setting.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.modules.base import Module
from repro.nn.modules.dropout import Dropout
from repro.nn.modules.linear import Linear
from repro.nn.modules.norm import LayerNorm
from repro.nn.modules.activation import GELU
from repro.nn.tensor import Tensor

__all__ = ["MultiHeadSelfAttention", "TransformerEncoderLayer"]


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = rng or np.random.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng)
        #: holds the attention-dropout probability and RNG stream(s)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        """Attend over sequence ``x`` of shape (N, T, D) — (S, N, T, D) seed-batched.

        ``attention_mask`` is an optional (N, T) array with 1 for real tokens
        and 0 for padding ((S, N, T) for seed-batched input); padded keys are
        masked out of the softmax.  Everything between the projections is one
        graph node, :func:`repro.nn.functional.attention`.
        """
        batched = x.seed_dim is not None
        if x.ndim != (4 if batched else 3):
            raise ValueError(
                f"attention expects {'(S, N, T, D)' if batched else '(N, T, D)'} input, "
                f"got shape {x.shape}"
            )
        drop = self.dropout
        attended = F.attention(
            self.q_proj(x),
            self.k_proj(x),
            self.v_proj(x),
            self.num_heads,
            attention_mask=attention_mask,
            dropout_p=drop.p,
            rng=drop.rng,
            training=drop.training,
            rngs=drop.rngs if batched else None,
        )
        return self.out_proj(attended)


class TransformerEncoderLayer(Module):
    """Pre-LayerNorm transformer encoder block (attention + MLP)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ffn_dim: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.attention = MultiHeadSelfAttention(embed_dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(embed_dim)
        self.norm2 = LayerNorm(embed_dim)
        self.ffn_in = Linear(embed_dim, ffn_dim, rng=rng)
        self.ffn_out = Linear(ffn_dim, embed_dim, rng=rng)
        self.activation = GELU()
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        attended = self.attention(self.norm1(x), attention_mask=attention_mask)
        x = x + self.dropout(attended)
        hidden = self.ffn_out(self.activation(self.ffn_in(self.norm2(x))))
        return x + self.dropout(hidden)
