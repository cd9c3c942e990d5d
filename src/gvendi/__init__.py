"""Gradient-entropy diversity metrics and diversity-targeted data synthesis.

The package measures how many effectively distinct samples a dataset
contains by looking at the entropy of its loss-gradient directions under a
small fixed proxy model, offers subset samplers that dial that diversity up
or down, and grows a data pool with a cluster-and-filter synthesis loop that
targets the sparse regions of gradient space.
"""

from .corpus import Corpus, Sample, content_id, ingest_jsonl, write_jsonl
from .featmat import FeatureMatrix, Provenance, load_features, store_features
from .proxy import (
    ProjectionSpec,
    ProxyModel,
    embed_hashed_tfidf,
    featurize,
    loss_gradient,
    project,
    sample_nll,
)
from .metrics import (
    DiversityReport,
    embedding_dissimilarity,
    embedding_vendi,
    g_vendi,
    mean_nll,
    ngram_entropy,
    tag_entropy,
    vendi_score,
)
from .cluster import ClusterModel, dynamic_k, kmeans_fit, sparse_clusters
from .sampling import (
    sample_higher_diversity,
    sample_lower_diversity,
    sample_mixture,
    sample_random,
)
from .synthesis import (
    EchoSolver,
    EndpointError,
    HttpJson,
    JsonLinesProcess,
    RecombinationGenerator,
    RemoteEndpoint,
    SynthesisConfig,
    SynthesisState,
    VerifiedCandidate,
    decontaminate,
    extract_answer,
    generate_candidates,
    load_checkpoint,
    majority_vote_filter,
    prismatic_step,
    run_synthesis,
    save_checkpoint,
)
from .evalstats import (
    AccuracyTable,
    CorrelationReport,
    correlation_study,
    fit_r2,
    relative_perf,
    spearman,
    stratified_correlation_study,
)
from .datagen import blob_features, template_corpus

__version__ = "0.1.0"

__all__ = [
    "AccuracyTable",
    "ClusterModel",
    "CorrelationReport",
    "Corpus",
    "DiversityReport",
    "EchoSolver",
    "EndpointError",
    "FeatureMatrix",
    "HttpJson",
    "JsonLinesProcess",
    "ProjectionSpec",
    "Provenance",
    "ProxyModel",
    "RecombinationGenerator",
    "RemoteEndpoint",
    "Sample",
    "SynthesisConfig",
    "SynthesisState",
    "VerifiedCandidate",
    "blob_features",
    "content_id",
    "correlation_study",
    "decontaminate",
    "dynamic_k",
    "embed_hashed_tfidf",
    "embedding_dissimilarity",
    "embedding_vendi",
    "extract_answer",
    "featurize",
    "fit_r2",
    "g_vendi",
    "generate_candidates",
    "ingest_jsonl",
    "kmeans_fit",
    "load_checkpoint",
    "load_features",
    "loss_gradient",
    "majority_vote_filter",
    "mean_nll",
    "ngram_entropy",
    "prismatic_step",
    "project",
    "relative_perf",
    "run_synthesis",
    "sample_higher_diversity",
    "sample_lower_diversity",
    "sample_mixture",
    "sample_nll",
    "sample_random",
    "save_checkpoint",
    "sparse_clusters",
    "spearman",
    "store_features",
    "stratified_correlation_study",
    "tag_entropy",
    "template_corpus",
    "vendi_score",
    "write_jsonl",
]
