"""Class-factored recurrent neural network language models.

Training, sentence scoring, perplexity, n-best rescoring and text
generation, built on an explicit computation graph with reverse-mode
differentiation; no external neural network framework is required.
"""

from .architecture import (
    DescriptionError,
    LayerSpec,
    NetworkDescription,
    parse_description,
    serialize_description,
    validate_description,
)
from .classing import (
    BigramStats,
    ClassMap,
    class_bigram_loglik,
    exchange_pass,
    identity_classmap,
    initialize_classes,
    load_class_file,
    run_exchange,
    save_class_file,
)
from .graph import (
    Graph,
    GraphError,
    NonFiniteError,
    ShapeError,
    backward,
    forward_eval,
)
from .model_io import ModelFormatError, load_model, save_model
from .network import Network, instantiate_network
from .optimizers import Optimizer, OptimizerConfig, clip_gradients
from .rescoring import (
    InterpolationParams,
    NBest,
    optimize_interpolation,
    read_nbest_file,
    read_reference_file,
)
from .sampling import sample_text
from .scoring import ScoreArrays, corpus_perplexity, score_arrays
from .training import TrainingConfig, TrainingState, train
from .vocabulary import Vocabulary, build_vocabulary, read_corpus

__version__ = "0.1.0"
