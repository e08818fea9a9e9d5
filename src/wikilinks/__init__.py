"""Anchor-text-aware hyperlink prediction on document networks.

Builds datasets from MediaWiki XML exports (abstracts, wikilinks with
their anchor texts, redirect aliases), extracts topic-centered subgraphs
with personalized PageRank, and evaluates transductive and inductive
link predictors against string-matched hard negatives.
"""

from .anchors import (
    AnchorMap,
    build_anchor_map,
    build_eval_samples,
    build_title_map,
    normalize_pattern,
)
from .dataset import Dataset
from .deepwalk import (
    DeepWalkModel,
    DeepWalkParams,
    fit_deepwalk,
)
from .evaluation import (
    EvalConfig,
    EvalSplit,
    MetricsReport,
    UndefinedMetricError,
    pr_auc,
    precision_recall_at_prevalence,
    run_eval,
    split_inductive,
    split_transductive,
)
from .graph import (
    DocumentNetwork,
    NetworkStats,
    PprScores,
    network_stats,
    personalized_pagerank,
    topk_subgraph,
)
from .ingest import (
    Article,
    DumpParseError,
    RawPage,
    build_corpus,
    extract_abstract,
    normalize_title,
    parse_dump,
    render_abstract,
)
from .lsa import (
    LsaModel,
    Vocabulary,
    build_tfidf,
    embed_text,
    fit_lsa,
    tokenize,
)
from .predictors import (
    METHOD_NAMES,
    AtilpModel,
    ExternalFileMethod,
    Method,
    fit_atilp,
    make_method,
)

__version__ = "0.1.0"
