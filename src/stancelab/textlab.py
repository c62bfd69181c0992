"""Unigram frequency reports and LDA topic modeling over tweet text.

Tokenization lowercases, strips URLs and @-mentions, splits on
non-alphanumeric boundaries, and drops stop words and one-character tokens.
Hashtags can be kept as single atomic tokens.  The topic model is collapsed
Gibbs sampling with symmetric Dirichlet priors and a seeded generator, so
identical inputs and seeds give identical assignments.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate
from operator import mul, truediv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, TweetRecord, normalize_hashtag
from .fileio import write_csv, write_json

__all__ = [
    "TokenizedDoc",
    "TopicModel",
    "load_stopwords",
    "default_stopwords",
    "tokenize",
    "tokenize_text_both",
    "unigram_frequencies",
    "lda_fit",
    "top_words",
    "write_frequency_csv",
    "write_topics_json",
]

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class TokenizedDoc:
    doc_id: str
    tokens: tuple[str, ...]
    hashtags_included: bool


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stop-word file: one word per line, '#' comments and blanks ignored."""
    return _stopword_set(Path(path).read_text(encoding="utf-8-sig"))


def default_stopwords() -> frozenset[str]:
    """The English list shipped with the package."""
    return _stopword_set(resources.files("stancelab.data").joinpath("stopwords_en.txt").read_text("utf-8"))


def _stopword_set(text: str) -> frozenset[str]:
    words = (line.strip() for line in text.split("\n"))
    return frozenset(w.casefold() for w in words if w and not w.startswith("#"))


def _word_tokens(fragment: str, stopwords: frozenset[str]) -> list[str]:
    return [t for t in _WORD_RE.findall(fragment.casefold()) if len(t) >= 2 and t not in stopwords]


def tokenize_text_both(text: str, stopwords: frozenset[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Token sequences of one message without and with its hashtags, from
    one URL, mention and hashtag pass; the words between hashtags are the
    same in both, and a kept hashtag stays atomic."""
    text = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))
    words: list[str] = []
    tagged: list[str] = []
    pos = 0
    for match in _HASHTAG_RE.finditer(text):
        between = _word_tokens(text[pos : match.start()], stopwords)
        words += between
        tagged += between
        tag = normalize_hashtag(match.group(0))
        if tag and len(tag) >= 2 and tag not in stopwords:
            tagged.append(tag)
        pos = match.end()
    rest = _word_tokens(text[pos:], stopwords)
    return tuple(words + rest), tuple(tagged + rest)


def tokenize(
    corpus: Corpus | Iterable[TweetRecord],
    stopwords: frozenset[str],
    *,
    pool_by_user: bool = False,
) -> tuple[list[TokenizedDoc], list[TokenizedDoc]]:
    """The documents without hashtags and the documents with them, from one
    pass per tweet: one TokenizedDoc per tweet in corpus order (empty docs
    included; the LDA fit drops them).

    ``pool_by_user`` concatenates each author's tweets into a single document
    (doc_id = user_id, first-author order), which helps topic models cope
    with very short messages.
    """
    tweets = corpus.tweets if isinstance(corpus, Corpus) else corpus
    docs = [(t.user_id if pool_by_user else t.tweet_id, tokenize_text_both(t.text, stopwords)) for t in tweets]
    if pool_by_user:
        pooled: dict[str, tuple[list[str], list[str]]] = {}
        for user_id, (words, tagged) in docs:
            pooled_words, pooled_tagged = pooled.setdefault(user_id, ([], []))
            pooled_words += words
            pooled_tagged += tagged
        docs = [(user_id, (tuple(words), tuple(tagged))) for user_id, (words, tagged) in pooled.items()]
    return tuple(
        [TokenizedDoc(doc_id=doc_id, tokens=views[kept], hashtags_included=kept) for doc_id, views in docs]
        for kept in (False, True)
    )


def unigram_frequencies(docs: Sequence[TokenizedDoc], top_n: int) -> list[tuple[str, int]]:
    """Descending (term, count) list, ties broken lexicographically."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    counts: dict[str, int] = {}
    for doc in docs:
        for token in doc.tokens:
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_n]


@dataclass(eq=False)
class TopicModel:
    """Fitted LDA state: phi rows are topic-word distributions over ``vocab``
    columns, theta rows are document-topic distributions for ``doc_ids``."""

    k: int
    phi: np.ndarray
    theta: np.ndarray
    alpha: float
    beta: float
    iterations: int
    rng_seed: int
    vocab: tuple[str, ...]
    doc_ids: tuple[str, ...]


def lda_fit(
    docs: Sequence[TokenizedDoc],
    k: int = 10,
    *,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> TopicModel:
    """Collapsed Gibbs sampling.

    The per-token conditional is p(z = t) proportional to
    (n_dt + alpha) * (n_tw + beta) / (n_t + V * beta), with the current token
    removed from all counts.  alpha defaults to 50 / k.  phi and theta are
    computed from the final counts with the same smoothing.

    Bit-identity contract: the result equals, bit for bit, a per-token loop
    of scalar NumPy draws, ``np.cumsum`` and ``np.searchsorted`` (the tests
    keep that loop as the reference).  The initial topics come from one
    ``rng.integers(0, k, n_tokens)``.  Each sweep draws one uniform per token,
    in token order, as one ``rng.random(n_tokens)``; a Generator gives the
    same stream for one vector call as for scalar calls.  Each weight is
    ``(n_dt + alpha) * (n_tw + beta) / (n_t + V * beta)`` in exactly that
    operation order.  The cumulative sum adds the weights one after another
    from topic 0, as ``np.cumsum`` does, and the new topic is the first whose
    cumulative weight exceeds ``u * total`` (``side="right"``), clamped to
    k - 1.  The sweeps run on Python lists, which cost far less per element
    than NumPy scalar access; with no sweeps the arrays are used as they are.
    Cost grows with tokens x iterations x k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    alpha = 50.0 / k if alpha is None else alpha
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be > 0")

    usable = [doc for doc in docs if doc.tokens]
    if not usable:
        raise ValueError("no usable documents: every document is empty after tokenization")

    vocab = tuple(sorted({tok for doc in usable for tok in doc.tokens}))
    if k > len(vocab):
        warnings.warn(f"topic count {k} exceeds vocabulary size {len(vocab)}", stacklevel=2)
    word_index = {w: i for i, w in enumerate(vocab)}
    n_docs = len(usable)
    n_vocab = len(vocab)

    token_word = np.array([word_index[tok] for doc in usable for tok in doc.tokens], dtype=np.intp)
    token_doc = np.array(
        [d for d, doc in enumerate(usable) for _ in doc.tokens], dtype=np.intp
    )
    n_tokens = len(token_word)

    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=n_tokens)

    n_dt = np.zeros((n_docs, k), dtype=np.int64)
    n_tw = np.zeros((k, n_vocab), dtype=np.int64)
    n_t = np.zeros(k, dtype=np.int64)
    np.add.at(n_dt, (token_doc, z), 1)
    np.add.at(n_tw, (z, token_word), 1)
    np.add.at(n_t, z, 1)

    v_beta = n_vocab * beta
    if iterations:
        n_dt, n_tw, n_t = _gibbs_sweeps(
            n_dt, n_tw, n_t, z, token_doc, token_word, alpha, beta, v_beta, iterations, rng
        )

    phi = (n_tw + beta) / (n_t + v_beta)[:, None]
    doc_lengths = n_dt.sum(axis=1)
    theta = (n_dt + alpha) / (doc_lengths + k * alpha)[:, None]
    return TopicModel(
        k=k,
        phi=phi,
        theta=theta,
        alpha=alpha,
        beta=beta,
        iterations=iterations,
        rng_seed=seed,
        vocab=vocab,
        doc_ids=tuple(doc.doc_id for doc in usable),
    )


def _gibbs_sweeps(n_dt, n_tw, n_t, z, token_doc, token_word, alpha, beta, v_beta, iterations, rng):
    """Run the sweeps on list copies of the counts; return the counts as arrays.

    ``doc_rows[d][t]`` is ``n_dt[d, t]`` and ``word_cols[w][t]`` is
    ``n_tw[t, w]``, so a token update touches one row of each.  Every count
    table has a float twin holding count + prior (``doc_plus[d][t]`` is
    ``n_dt[d, t] + alpha``), set from the integer whenever the count moves,
    so the k weights are one ``map`` of multiply and divide over the twins
    with the same operands as the formula.
    """
    doc_rows = n_dt.tolist()
    word_cols = n_tw.T.tolist()
    totals = n_t.tolist()
    doc_plus = [[n + alpha for n in row] for row in doc_rows]
    word_plus = [[n + beta for n in col] for col in word_cols]
    totals_plus = [n + v_beta for n in totals]
    tables = [
        (doc_rows[d], doc_plus[d], word_cols[w], word_plus[w]) for d, w in zip(token_doc.tolist(), token_word.tolist())
    ]
    topic_of = z.tolist()
    last = len(totals) - 1
    for _ in range(iterations):
        for i, u in enumerate(rng.random(len(topic_of)).tolist()):
            row, row_plus, col, col_plus = tables[i]
            t = topic_of[i]
            n = row[t] - 1
            row[t] = n
            row_plus[t] = n + alpha
            n = col[t] - 1
            col[t] = n
            col_plus[t] = n + beta
            n = totals[t] - 1
            totals[t] = n
            totals_plus[t] = n + v_beta
            cum = list(accumulate(map(truediv, map(mul, row_plus, col_plus), totals_plus)))
            t = bisect_right(cum, u * cum[-1])
            if t > last:  # guard against the draw landing exactly on the total
                t = last
            topic_of[i] = t
            n = row[t] + 1
            row[t] = n
            row_plus[t] = n + alpha
            n = col[t] + 1
            col[t] = n
            col_plus[t] = n + beta
            n = totals[t] + 1
            totals[t] = n
            totals_plus[t] = n + v_beta
    return (
        np.array(doc_rows, dtype=np.int64),
        np.ascontiguousarray(np.array(word_cols, dtype=np.int64).T),
        np.array(totals, dtype=np.int64),
    )


def top_words(
    model: TopicModel,
    topic: int,
    n: int,
    exclude: frozenset[str] | set[str] | None = None,
) -> list[tuple[str, float]]:
    """Highest-probability words of one topic, descending, ties lexicographic.

    ``exclude`` filters tokens out before ranking (e.g. the corpus hashtag
    vocabulary, to report plain words only).
    """
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    row = model.phi[topic]
    pairs = [
        (word, float(row[i]))
        for i, word in enumerate(model.vocab)
        if exclude is None or word not in exclude
    ]
    pairs.sort(key=lambda item: (-item[1], item[0]))
    return pairs[:n]


def write_frequency_csv(frequencies: list[tuple[str, int]], path: str | Path) -> None:
    write_csv(path, ("term", "count"), frequencies)


def write_topics_json(
    model: TopicModel,
    path: str | Path,
    top_n: int,
    exclude: frozenset[str] | set[str] | None = None,
) -> None:
    """Topic report: [{topic_id, top_words: [{word, prob}]}]."""
    report = [
        {
            "topic_id": topic,
            "top_words": [{"word": w, "prob": p} for w, p in top_words(model, topic, top_n, exclude)],
        }
        for topic in range(model.k)
    ]
    write_json(path, report)
