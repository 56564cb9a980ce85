"""Evolving-interest click-through prediction, from embeddings to CLI.

The package builds recurrent interest models over user behavior sequences:
a gated-cell extractor stage, target-aware attention, and three
attention-fused evolution cells, trained with an optional next-behavior
loss and evaluated by ranking quality.  Everything runs on plain numpy
with hand-derived backward passes.  Library code imports the submodules
(`dien.data`, `dien.model`, `dien.training`, `dien.evaluation`, ...);
the package root exports nothing else.
"""

__version__ = "0.1.0"
