"""Tiny transformer encoder — the BERT proxy for the GLUE fine-tuning setting."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro import nn
from repro.utils.seeding import spawn_rng

__all__ = ["TinyTransformer", "TransformerConfig"]


class TransformerConfig:
    """Hyperparameters of the BERT proxy."""

    def __init__(
        self,
        vocab_size: int = 64,
        max_seq_len: int = 32,
        embed_dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        ffn_dim: int = 64,
        num_segments: int = 2,
        dropout: float = 0.0,
    ) -> None:
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.vocab_size = vocab_size
        self.max_seq_len = max_seq_len
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.ffn_dim = ffn_dim
        self.num_segments = num_segments
        self.dropout = dropout


class TinyTransformer(nn.Module):
    """Transformer encoder with token/position/segment embeddings and a CLS head.

    ``forward(tokens, segments)`` returns logits of shape ``(N, num_labels)``
    (``num_labels=1`` for regression tasks).  ``pretrain`` runs a short
    self-supervised token-reconstruction phase so that "fine-tuning a
    pre-trained model" keeps its meaning at proxy scale.
    """

    def __init__(self, config: TransformerConfig, num_labels: int = 2, seed: int = 0) -> None:
        super().__init__()
        rng = spawn_rng("transformer", seed=seed)
        self.config = config
        self.num_labels = num_labels
        self.token_embedding = nn.Embedding(config.vocab_size, config.embed_dim, rng=rng)
        self.position_embedding = nn.Embedding(config.max_seq_len, config.embed_dim, rng=rng)
        self.segment_embedding = nn.Embedding(config.num_segments, config.embed_dim, rng=rng)
        self.layers = nn.ModuleList(
            nn.TransformerEncoderLayer(
                config.embed_dim, config.num_heads, config.ffn_dim, dropout=config.dropout, rng=rng
            )
            for _ in range(config.num_layers)
        )
        self.final_norm = nn.LayerNorm(config.embed_dim)
        self.classifier = nn.Linear(config.embed_dim, num_labels, rng=rng)
        self.mlm_head = nn.Linear(config.embed_dim, config.vocab_size, rng=rng)

    # -- encoding -----------------------------------------------------------------
    def encode(
        self,
        tokens: np.ndarray,
        segments: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> nn.Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        batched = self.token_embedding.weight.seed_dim is not None
        if tokens.ndim != (3 if batched else 2):
            expected = "(S, N, T)" if batched else "(N, T)"
            raise ValueError(f"tokens must be {expected}, got shape {tokens.shape}")
        t = tokens.shape[-1]
        if t > self.config.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len {self.config.max_seq_len}")
        if segments is None:
            segments = np.zeros_like(tokens)
        positions = np.broadcast_to(np.arange(t), tokens.shape)
        x = (
            self.token_embedding(tokens)
            + self.position_embedding(positions)
            + self.segment_embedding(np.asarray(segments, dtype=np.int64))
        )
        for layer in self.layers:
            x = layer(x, attention_mask=attention_mask)
        return self.final_norm(x)

    def forward(
        self,
        tokens: np.ndarray,
        segments: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> nn.Tensor:
        hidden = self.encode(tokens, segments, attention_mask)
        if hidden.seed_dim is not None:
            cls = hidden[:, :, 0, :]  # first token acts as [CLS], per seed
        else:
            cls = hidden[:, 0, :]  # first token acts as [CLS]
        return self.classifier(cls)

    # -- lightweight "pre-training" ---------------------------------------------------
    def pretrain(self, steps: int = 20, batch_size: int = 16, lr: float = 1e-3, seed: int = 0) -> float:
        """Short denoising pre-training pass (reconstruct corrupted tokens).

        Returns the final pre-training loss.  This keeps the GLUE proxy's
        "fine-tune a pre-trained encoder" structure without a full MLM corpus.
        """
        from repro.nn.losses import cross_entropy
        from repro.optim import AdamW

        rng = spawn_rng("pretrain", seed=seed)
        optimizer = AdamW(self.parameters(), lr=lr)
        # planned like Trainer._fit: each step reuses the arena, and the plan
        # releases the finished step's tape so refcounting frees it
        graph_plan = nn.GraphPlan() if nn.plan_enabled_default() else None
        final_loss = 0.0
        for _ in range(max(0, steps)):
            tokens = rng.integers(2, self.config.vocab_size, size=(batch_size, self.config.max_seq_len // 2))
            corrupted = tokens.copy()
            mask = rng.random(tokens.shape) < 0.15
            corrupted[mask] = 0
            with graph_plan.step() if graph_plan is not None else nullcontext():
                hidden = self.encode(corrupted)
                logits = self.mlm_head(hidden).reshape(-1, self.config.vocab_size)
                loss = cross_entropy(logits, tokens.reshape(-1))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            final_loss = float(loss.data)
        return final_loss
