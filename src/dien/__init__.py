"""Evolving-interest click-through prediction, from embeddings to CLI.

The package builds recurrent interest models over user behavior sequences:
a gated-cell extractor stage, target-aware attention, and three
attention-fused evolution cells, trained with an optional next-behavior
loss and evaluated by ranking quality.  Everything runs on plain numpy
with hand-derived backward passes.
"""

from .data import (
    Corpus,
    Instance,
    SynthConfig,
    Vocab,
    parse_corpus,
    save_corpus,
    synth_generate,
    truncate_history,
)
from .embedding import PAD_ID, EmbeddingTable
from .errors import (
    ConfigError,
    DegenerateError,
    DienError,
    DivergenceError,
    DomainError,
    NumericError,
    ParseError,
    ShapeError,
    UsageError,
    VocabularyError,
)
from .evaluation import (
    EvalReport,
    VizBundle,
    auc,
    build_viz_probes,
    evaluate,
    pca_project,
    repeat_eval,
    run_ablation,
    viz_bundle,
)
from .model import DienModel, MlpParams, ModelVariant, total_loss
from .numerics import finite_diff_grad, log_sigmoid, max_rel_error, sigmoid
from .recurrent import AttentionParams, GruParams
from .training import Adam, CurveRecord, GradCheckReport, TrainConfig, adam_step, grad_check, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
