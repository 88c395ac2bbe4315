"""tweetlink: match short social-media posts to the news articles they discuss.

Documents are embedded into a shared vector space (TF-IDF, LDA, precomputed
embeddings, or a trainable dual encoder with a contrastive cosine loss),
every tweet-article pair is scored with cosine similarity, and matches are
evaluated against three-valued ground truth at the single-tweet and
cascade level.
"""

from .cascade import AGGREGATIONS, Cascade, CascadeMember, aggregate, build_cascades, cut
from .contrast import (
    STRATEGIES,
    AffineMap,
    DualEncoder,
    TrainConfig,
    cosine_embedding_loss,
    encode,
    encode_batch,
    load_encoder,
    loss_gradient,
    sample_negatives,
    save_encoder,
    train,
)
from .corpus import (
    AnnotationRecord,
    Document,
    KeywordList,
    LinkedPair,
    PairTable,
    build_ground_truth,
    extract_summary,
    keyword_filter,
    load_annotations,
    load_documents,
    load_keywords,
    load_pair_table,
    load_pairs,
    synth_fixture,
)
from .evalx import (
    ConsensusEntry,
    MetricsReport,
    average_precision,
    binary_metrics,
    consensus_score,
    evaluate_masked,
    fleiss_kappa,
    masked_pairs,
)
from .linker import calibrate_threshold, classify, cosine, score_matrix
from .matrices import ClassificationMatrix, CsrRows, GroundTruthMatrix, SimilarityMatrix
from .textprep import (
    ChunkingConfig,
    CleaningConfig,
    augment_split,
    chunk,
    clean,
    load_lemmas,
    tokenize_lemmatize,
    truncate,
)
from .vectorize import (
    EmbeddingTable,
    LdaModel,
    TfidfModel,
    Vocabulary,
    lda_fit,
    lda_infer,
    load_embeddings,
    tfidf_fit,
    tfidf_transform,
    tfidf_transform_batch,
)

__version__ = "0.1.0"
