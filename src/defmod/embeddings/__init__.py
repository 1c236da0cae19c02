"""Single-sense and multi-sense word embedding training and lookup."""

from .tables import EmbeddingTable, SenseTable, cosine
from .corpus import NoiseSampler, corpus_to_ids
from .sgns import SgnsConfig, train_sgns
from .adagram import AdagramConfig, train_adagram

__all__ = [
    "AdagramConfig",
    "EmbeddingTable",
    "NoiseSampler",
    "SenseTable",
    "SgnsConfig",
    "corpus_to_ids",
    "cosine",
    "train_adagram",
    "train_sgns",
]
