"""Unigram frequency reports and LDA topic modeling over tweet text.

Tokenization lowercases, strips URLs and @-mentions, splits on
non-alphanumeric boundaries, and drops stop words and one-character tokens.
Hashtags can be kept as single atomic tokens.  The topic model is collapsed
Gibbs sampling with symmetric Dirichlet priors and a seeded generator, so
identical inputs and seeds give identical assignments.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, TweetRecord, normalize_hashtag

__all__ = [
    "TokenizedDoc",
    "TopicModel",
    "load_stopwords",
    "default_stopwords",
    "tokenize",
    "tokenize_text",
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
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word.casefold())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The English list shipped with the package."""
    text = resources.files("stancelab.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip().casefold() for w in text.splitlines() if w.strip() and not w.startswith("#"))


def _word_tokens(fragment: str, stopwords: frozenset[str]) -> list[str]:
    tokens = []
    for match in _WORD_RE.finditer(fragment.casefold()):
        token = match.group(0)
        if len(token) >= 2 and token not in stopwords:
            tokens.append(token)
    return tokens


def tokenize_text(text: str, stopwords: frozenset[str], include_hashtags: bool = False) -> tuple[str, ...]:
    """Token sequence for one message; hashtags stay atomic when kept."""
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    tokens: list[str] = []
    pos = 0
    for match in _HASHTAG_RE.finditer(text):
        tokens.extend(_word_tokens(text[pos : match.start()], stopwords))
        if include_hashtags:
            tag = normalize_hashtag(match.group(0))
            if tag and len(tag) >= 2 and tag not in stopwords:
                tokens.append(tag)
        pos = match.end()
    tokens.extend(_word_tokens(text[pos:], stopwords))
    return tuple(tokens)


def tokenize(
    corpus: Corpus | Iterable[TweetRecord],
    stopwords: frozenset[str],
    include_hashtags: bool = False,
    *,
    pool_by_user: bool = False,
) -> list[TokenizedDoc]:
    """One TokenizedDoc per tweet, in corpus order (empty docs included;
    the LDA fit drops them).

    ``pool_by_user`` concatenates each author's tweets into a single document
    (doc_id = user_id, first-author order), which helps topic models cope
    with very short messages.
    """
    tweets = corpus.tweets if isinstance(corpus, Corpus) else corpus
    if not pool_by_user:
        return [
            TokenizedDoc(
                doc_id=t.tweet_id,
                tokens=tokenize_text(t.text, stopwords, include_hashtags),
                hashtags_included=include_hashtags,
            )
            for t in tweets
        ]
    pooled: dict[str, list[str]] = {}
    for t in tweets:
        pooled.setdefault(t.user_id, []).extend(tokenize_text(t.text, stopwords, include_hashtags))
    return [
        TokenizedDoc(doc_id=user_id, tokens=tuple(tokens), hashtags_included=include_hashtags)
        for user_id, tokens in pooled.items()
    ]


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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    alpha = 50.0 / k if alpha is None else alpha

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
    for _ in range(iterations):
        for i in range(n_tokens):
            d, w, t = token_doc[i], token_word[i], z[i]
            n_dt[d, t] -= 1
            n_tw[t, w] -= 1
            n_t[t] -= 1
            weights = (n_dt[d] + alpha) * (n_tw[:, w] + beta) / (n_t + v_beta)
            cum = np.cumsum(weights)
            t_new = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            if t_new == k:  # guard against the draw landing exactly on the total
                t_new = k - 1
            z[i] = t_new
            n_dt[d, t_new] += 1
            n_tw[t_new, w] += 1
            n_t[t_new] += 1

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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["term", "count"])
        for term, count in frequencies:
            writer.writerow([term, count])


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
