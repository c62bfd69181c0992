"""Unigram frequency reports and LDA topic modeling over tweet text.

Tokenization lowercases, strips URLs and @-mentions, splits on
non-alphanumeric boundaries, and drops stop words and one-character tokens.
Hashtags can be kept as single atomic tokens.  The topic model is collapsed
Gibbs sampling with symmetric Dirichlet priors and a seeded generator, so
identical inputs and seeds give identical assignments.
"""

from __future__ import annotations

import math
import operator
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import TweetRecord, normalize_hashtag
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
# A mention, a hashtag or a word, whichever starts first: on a text without
# URLs, one left-to-right scan meets them as the passes above do.
_SCAN_RE = re.compile(r"@\w+|#\w+|[^\W_]+")


@dataclass(frozen=True, slots=True)
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
    """Token sequences of one message without and with its hashtags; the
    words between hashtags are the same in both, and a kept hashtag stays
    atomic.

    The tokens are those of these passes: remove URLs from the whole text,
    then mentions; split the rest at its hashtags; case-fold each fragment
    between them and keep its words.  An ASCII text, where ``casefold`` is
    ``lower`` and changes no character's class, is lowered whole and scanned
    once for mentions, hashtags and words, after the URL pass if it holds
    ``://`` or ``www.``: no mention, hashtag or word holds an ``@`` or ``#``
    past its first character, so the scan finds the mentions the mention
    pass removes, the hashtags the text is split at and the words between
    them, in order.  Other texts take the passes as written, because case
    folding can change which characters are word characters (``İ``,
    U+0345) and the length of a fragment (``ß``).
    """
    if not text.isascii():
        return _tokenize_by_passes(text, stopwords)
    text = text.lower()
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    words: list[str] = []
    tagged: list[str] = []
    for token in _SCAN_RE.findall(text):
        head = token[0]
        if head == "#":
            token = token[1:]  # normalize_hashtag of an ASCII hashtag
            if len(token) >= 2 and token not in stopwords:
                tagged.append(token)
        elif head != "@" and len(token) >= 2 and token not in stopwords:
            words.append(token)
            tagged.append(token)
    return tuple(words), tuple(tagged)


def _tokenize_by_passes(text: str, stopwords: frozenset[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
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
    tweets: Iterable[TweetRecord], stopwords: frozenset[str], *, pool_by_user: bool = False
) -> tuple[list[TokenizedDoc], list[TokenizedDoc]]:
    """The documents without hashtags and the documents with them, from one
    pass per distinct text: one TokenizedDoc per tweet in the given order
    (empty docs included; the LDA fit drops them).  Each distinct text is
    tokenized once per call, so a retweet, which copies its original's text,
    costs a lookup.

    ``pool_by_user`` concatenates each author's tweets into a single document
    (doc_id = user_id, first-author order), which helps topic models cope
    with very short messages.
    """
    views_by_text: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    docs = []
    for t in tweets:
        views = views_by_text.get(t.text)
        if views is None:
            views = views_by_text[t.text] = tokenize_text_both(t.text, stopwords)
        docs.append((t.user_id if pool_by_user else t.tweet_id, views))
    if pool_by_user:
        pooled: dict[str, tuple[list[str], list[str]]] = {}
        for user_id, (words, tagged) in docs:
            pooled_words, pooled_tagged = pooled.setdefault(user_id, ([], []))
            pooled_words += words
            pooled_tagged += tagged
        docs = [(user_id, (tuple(words), tuple(tagged))) for user_id, (words, tagged) in pooled.items()]
    return tuple([TokenizedDoc(doc_id, views[kept], kept) for doc_id, views in docs] for kept in (False, True))


def unigram_frequencies(docs: Sequence[TokenizedDoc], top_n: int) -> list[tuple[str, int]]:
    """Descending (term, count) list, ties broken lexicographically."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    counts = Counter(chain.from_iterable(doc.tokens for doc in docs))
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
    than NumPy scalar access.  Each sweep is one call of a function compiled
    for this k on the first sweep and cached on k: it computes weight t as
    ``r_t * c_t / T_t`` from locals unpacked from the three count + prior
    rows, adds them up as ``s_t = s_{t-1} + w_t``, which are the same IEEE
    operations in the same order as the reference, so every cumulative
    weight keeps its bits.  A tree of ``x < s_mid`` comparisons, halving
    0..k as ``bisect_right`` does, picks the new topic; its last leaf is the
    clamp.  The count + prior values always equal count + prior: an update
    that keeps its topic (most of them, once the topics settle) puts back
    the three values it set aside and changes no count, and one that moves
    updates both topics' counts and values.  With no sweeps no function is
    compiled and the count arrays are used as they are; they are built with
    ``np.bincount``, giving the same integers as the reference's
    ``np.add.at``.  Cost grows with tokens x iterations x k.

    alpha and beta must be finite and > 0, and small enough that
    ``k * alpha``, ``n_vocab * beta`` and every sweep weight are finite: an
    infinite denominator would give phi or theta rows of zeros.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    alpha = 50.0 / k if alpha is None else alpha
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("alpha and beta must be > 0 and finite")

    usable = [doc for doc in docs if doc.tokens]
    if not usable:
        raise ValueError("no usable documents: every document is empty after tokenization")

    tokens = list(chain.from_iterable(doc.tokens for doc in usable))
    vocab = tuple(sorted(set(tokens)))
    n_docs = len(usable)
    n_vocab = len(vocab)
    n_tokens = len(tokens)
    # phi divides by n_t + n_vocab * beta and theta by a doc length + k * alpha;
    # a sweep's weights, and their sum over the k topics, stay below
    # k * (alpha + n_tokens) * (beta + n_tokens), which bounds both products too.
    if not math.isfinite(k * (alpha + n_tokens) * (beta + n_tokens)):
        raise ValueError(
            f"alpha={alpha!r} and beta={beta!r} overflow: k * alpha, n_vocab * beta or the Gibbs weights are not finite"
        )
    if k > n_vocab:
        warnings.warn(f"topic count {k} exceeds vocabulary size {n_vocab}", stacklevel=2)
    word_index = dict(zip(vocab, range(n_vocab)))

    token_word = np.fromiter(map(word_index.__getitem__, tokens), dtype=np.intp, count=n_tokens)
    token_doc = np.repeat(np.arange(n_docs, dtype=np.intp), [len(doc.tokens) for doc in usable])

    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=n_tokens)

    n_dt = np.bincount(token_doc * k + z, minlength=n_docs * k).reshape(n_docs, k).astype(np.int64, copy=False)
    n_tw = np.bincount(z * n_vocab + token_word, minlength=k * n_vocab).reshape(k, n_vocab).astype(np.int64, copy=False)
    n_t = np.bincount(z, minlength=k).astype(np.int64, copy=False)

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
    so between updates each twin value equals its count + prior.  Each sweep
    is one call of the kernel ``_sweep_kernel`` generates for k, which
    unpacks a token's three twin rows into locals, writes the k weights and
    their running sum as straight-line code and picks the new topic with a
    comparison tree; a token that keeps its topic changes no count.
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
    sweep = _sweep_kernel(len(totals))
    for _ in range(iterations):
        sweep(tables, topic_of, totals, totals_plus, rng.random(len(topic_of)).tolist(), alpha, beta, v_beta)
    return (
        np.array(doc_rows, dtype=np.int64),
        np.ascontiguousarray(np.array(word_cols, dtype=np.int64).T),
        np.array(totals, dtype=np.int64),
    )


# One sweep; _sweep_source fills in {weights}, the k weights and their
# running sum, {last} = k - 1, and {tree}, the comparisons that pick the new
# topic.
_SWEEP_SOURCE = """\
def sweep(tables, topic_of, totals, totals_plus, uniforms, alpha, beta, v_beta):
    for i, u in enumerate(uniforms):
        row, row_plus, col, col_plus = tables[i]
        t = topic_of[i]
        kept_row = row_plus[t]
        kept_col = col_plus[t]
        kept_total = totals_plus[t]
        row_plus[t] = row[t] - 1 + alpha
        col_plus[t] = col[t] - 1 + beta
        totals_plus[t] = totals[t] - 1 + v_beta
{weights}
        x = u * s{last}
{tree}
        if new == t:
            row_plus[t] = kept_row
            col_plus[t] = kept_col
            totals_plus[t] = kept_total
            continue
        topic_of[i] = new
        row[t] -= 1
        col[t] -= 1
        totals[t] -= 1
        n = row[new] + 1
        row[new] = n
        row_plus[new] = n + alpha
        n = col[new] + 1
        col[new] = n
        col_plus[new] = n + beta
        n = totals[new] + 1
        totals[new] = n
        totals_plus[new] = n + v_beta
"""


def _sweep_source(k):
    """The source of ``_sweep_kernel(k)``; only integers from ``range(k)``
    enter it."""
    topics = range(operator.index(k))
    last = topics[-1]
    weights = [
        f"        {', '.join(f'{name}{t}' for t in topics)}, = {row}"
        for name, row in (("r", "row_plus"), ("c", "col_plus"), ("T", "totals_plus"))
    ]
    weights.append("        s0 = r0 * c0 / T0")
    weights += [f"        s{t} = s{t - 1} + r{t} * c{t} / T{t}" for t in topics[1:]]

    def tree(lo, hi, indent):
        # The new topic is the count of s{t} <= x, in lo..hi; hi = k means
        # none is above x, which the leaf clamps to k - 1.
        if lo == hi:
            return [f"{indent}new = {min(lo, last)}"]
        mid = (lo + hi) // 2
        deeper = indent + "    "
        return [f"{indent}if x < s{mid}:", *tree(lo, mid, deeper), f"{indent}else:", *tree(mid + 1, hi, deeper)]

    return _SWEEP_SOURCE.format(weights="\n".join(weights), last=last, tree="\n".join(tree(0, last + 1, "        ")))


@cache
def _sweep_kernel(k):
    """One Gibbs sweep over every token, compiled for ``k`` topics.

    An update first saves the old topic's three count + prior values and
    writes the values less this token (``row[t] - 1 + alpha`` and so on).
    The three twin rows are unpacked into locals ``r{t}``, ``c{t}`` and
    ``T{t}``.  Weight t is ``r{t} * c{t} / T{t}`` and ``s{t} = s{t-1} +
    weight t``, so the cumulative weights are the same IEEE operations in the
    same order as ``np.cumsum`` over the NumPy formula.  With ``x = u *
    s{k-1}``, a tree of ``if x < s{mid}:`` tests halving ``0..k`` as
    ``bisect_right`` does gives the count of ``s{t} <= x``, which is
    ``bisect_right``'s index; the leaf for k gives k - 1, the clamp.  An
    update that keeps its topic writes the three saved values back and
    touches no integer count; one that moves takes one from each old count
    and adds one to each new count, setting its twin.  Either way every
    twin value equals its integer + prior, bit for bit.
    """
    source = _sweep_source(k)
    namespace: dict = {}
    exec(compile(source, f"<gibbs sweep k={operator.index(k)}>", "exec"), namespace)
    return namespace["sweep"]


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
    vocab = model.vocab
    order = np.argsort(-row, kind="stable").tolist()  # vocab is sorted, so tied words stay in word order
    if exclude is not None:
        order = [i for i in order if vocab[i] not in exclude]
    return [(vocab[i], float(row[i])) for i in order[:n]]


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
