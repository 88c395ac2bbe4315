"""tweetlink: match short social-media posts to the news articles they discuss.

Documents are embedded into a shared vector space (TF-IDF, LDA, precomputed
embeddings, or a trainable dual encoder with a contrastive cosine loss),
every tweet-article pair is scored with cosine similarity, and matches are
evaluated against three-valued ground truth at the single-tweet and
cascade level.

The public names below resolve on first access (PEP 562), each from its home
module, so `import tweetlink` runs no submodule and loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "config": "AGGREGATIONS ChunkingConfig CleaningConfig STRATEGIES TrainConfig",
    "cascade": "Cascade CascadeMember aggregate build_cascades cut",
    "contrast": (
        "AffineMap DualEncoder cosine_embedding_loss encode encode_batch load_encoder "
        "loss_gradient sample_negatives save_encoder train"
    ),
    "corpus": (
        "AnnotationRecord Document EmbeddingTable KeywordList LinkedPair PairTable "
        "build_ground_truth extract_summary keyword_filter load_annotations load_documents "
        "load_embeddings load_keywords load_pair_table load_pairs synth_fixture"
    ),
    "evalx": (
        "MetricsReport average_precision binary_metrics evaluate_masked fleiss_kappa "
        "masked_pairs"
    ),
    "linker": "calibrate_threshold classify cosine score_matrix",
    "matrices": "ClassificationMatrix CsrRows GroundTruthMatrix SimilarityMatrix",
    "textprep": "augment_split chunk clean clean_words load_lemmas tokenize_lemmatize truncate",
    "vectorize": (
        "LdaModel TfidfModel Vocabulary lda_fit lda_infer tfidf_fit tfidf_transform "
        "tfidf_transform_batch"
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
