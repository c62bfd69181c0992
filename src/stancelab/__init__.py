"""Batch toolkit for splitting a tweet corpus into two competing stance
groups (via seeded polarity propagation over the hashtag co-occurrence
graph) and quantifying how polarized their communication is."""

__version__ = "0.1.0"

from .corpus import Corpus, TweetRecord, load_corpus, dump_corpus, normalize_hashtag
from .hashtag_graph import (
    HashtagGraph,
    PropagationConfig,
    SeedSpec,
    build_cooccurrence_graph,
    propagate_labels,
    seed_labels,
)
from .stance import Stance, StanceTable, classify_users, user_polarity
from .commnet import (
    CommNetwork,
    NetworkKind,
    all_communication,
    build_network,
    export_graph,
    group_subgraph,
    reciprocal_subnetwork,
)
from .netmetrics import (
    EchoResult,
    InfluencerReport,
    density,
    echo_chamberness,
    eigenvector_centrality,
    influence_base,
    reciprocity,
    super_friends,
    super_spreaders,
)
from .textlab import TokenizedDoc, TopicModel, lda_fit, tokenize, top_words, unigram_frequencies
from .annotations import (
    BotScoreTable,
    bot_threshold_sweep,
    classify_bots,
    load_account_types,
    load_bot_scores,
    news_source_concentration,
)
from .pipeline import PipelineConfig, run_pipeline, run_stage
