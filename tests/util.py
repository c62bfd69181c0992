"""Shared fixture builders and independent oracles for the test suite.

The oracles deliberately use different machinery than the implementations
they check (pair enumeration instead of edge-set lookups, dense
eigendecomposition instead of power iteration).
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from datetime import datetime

import numpy as np

from stancelab.commnet import CommNetwork, NetworkKind
from stancelab.corpus import Corpus, CorpusFormatError, TweetRecord, normalize_hashtag
from stancelab.hashtag_graph import HashtagGraph, PropagationConfig
from stancelab.stance import Stance


def make_tweet(
    tweet_id,
    user_id,
    hashtags=(),
    text="",
    retweeted=None,
    reply_to=None,
    mentions=(),
    screen_name="",
    timestamp=None,
):
    tags = tuple(t for t in (normalize_hashtag(h) for h in hashtags) if t)
    return TweetRecord(
        tweet_id=str(tweet_id),
        user_id=str(user_id),
        text=text,
        hashtags=tags,
        screen_name=screen_name,
        retweeted_user_id=retweeted,
        in_reply_to_user_id=reply_to,
        mentioned_user_ids=tuple(mentions),
        timestamp=timestamp,
    )


def make_corpus(*tweets: TweetRecord) -> Corpus:
    return Corpus(tweets=list(tweets))


def random_corpus(rng: np.random.Generator, n_tweets: int, n_users: int = 8, n_tags: int = 6, allow_self: bool = False) -> Corpus:
    """Random tweets with retweets/replies/mentions and hashtag usage."""
    users = [f"u{i}" for i in range(n_users)]
    tags = [f"tag{i}" for i in range(n_tags)]
    tweets = []
    for i in range(n_tweets):
        author = users[rng.integers(0, n_users)]
        others = [u for u in users if allow_self or u != author]
        hashtags = [tags[j] for j in rng.integers(0, n_tags, size=rng.integers(0, 4))]
        retweeted = others[rng.integers(0, len(others))] if rng.random() < 0.3 else None
        reply_to = others[rng.integers(0, len(others))] if rng.random() < 0.2 else None
        mentions = [others[j] for j in rng.integers(0, len(others), size=rng.integers(0, 3))]
        tweets.append(
            make_tweet(
                f"t{i}",
                author,
                hashtags=hashtags,
                text=f"tweet number {i}",
                retweeted=retweeted,
                reply_to=reply_to,
                mentions=mentions,
            )
        )
    return make_corpus(*tweets)


def oracle_hashtag_counts(corpus: Corpus, user_id: str, include_retweets: bool = True) -> dict[str, int]:
    """Full-corpus scan: every hashtag occurrence in the user's tweets,
    retweets optionally skipped."""
    counts: dict[str, int] = {}
    for t in corpus.tweets:
        if t.user_id == user_id and (include_retweets or t.retweeted_user_id is None):
            for h in t.hashtags:
                counts[h] = counts.get(h, 0) + 1
    return counts


def _oracle_expect_str(obj: dict, key: str, line_no: int, required: bool = True) -> str | None:
    if key not in obj or obj[key] is None:
        if required:
            raise CorpusFormatError(f"line {line_no}: missing required field {key!r}")
        return None
    value = obj[key]
    if not isinstance(value, str):
        raise CorpusFormatError(f"line {line_no}: field {key!r} must be a string")
    return value


def _oracle_parse_record(obj: object, line_no: int) -> TweetRecord:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"line {line_no}: expected a JSON object")
    tweet_id = _oracle_expect_str(obj, "tweet_id", line_no)
    user_id = _oracle_expect_str(obj, "user_id", line_no)
    text = obj.get("text")
    if text is None or not isinstance(text, str):
        raise CorpusFormatError(f"line {line_no}: missing required field 'text'")
    if not tweet_id:
        raise CorpusFormatError(f"line {line_no}: tweet_id must be nonempty")
    if not user_id:
        raise CorpusFormatError(f"line {line_no}: user_id must be nonempty")

    raw_tags = obj.get("hashtags")
    if not isinstance(raw_tags, list) or any(not isinstance(h, str) for h in raw_tags):
        raise CorpusFormatError(f"line {line_no}: 'hashtags' must be an array of strings")
    hashtags = tuple(h for h in (normalize_hashtag(raw) for raw in raw_tags) if h)

    mentions = obj.get("mentioned_user_ids", [])
    if not isinstance(mentions, list) or any(not isinstance(m, str) for m in mentions):
        raise CorpusFormatError(f"line {line_no}: 'mentioned_user_ids' must be an array of strings")

    timestamp = None
    if obj.get("timestamp") is not None:
        raw_ts = obj["timestamp"]
        if not isinstance(raw_ts, str):
            raise CorpusFormatError(f"line {line_no}: 'timestamp' must be an ISO-8601 string")
        try:
            timestamp = datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
        except ValueError as exc:
            raise CorpusFormatError(f"line {line_no}: bad timestamp {raw_ts!r}: {exc}") from exc

    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        text=text,
        hashtags=hashtags,
        screen_name=_oracle_expect_str(obj, "screen_name", line_no, required=False) or "",
        retweeted_user_id=_oracle_expect_str(obj, "retweeted_user_id", line_no, required=False),
        in_reply_to_user_id=_oracle_expect_str(obj, "in_reply_to_user_id", line_no, required=False),
        mentioned_user_ids=tuple(mentions),
        timestamp=timestamp,
    )


def oracle_load_corpus(path, strict: bool = False) -> Corpus:
    """The corpus reader as first written: ``json.loads`` on every line and
    ``isinstance`` checks field by field, one ``normalize_hashtag`` per tag;
    a byte-order mark that starts the file is dropped."""
    tweets: list[TweetRecord] = []
    seen: set[str] = set()
    skipped = 0
    duplicates = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _oracle_parse_record(json.loads(line), line_no)
            except (json.JSONDecodeError, CorpusFormatError) as exc:
                if strict:
                    if isinstance(exc, CorpusFormatError):
                        raise
                    raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
                skipped += 1
                continue
            if record.tweet_id in seen:
                if strict:
                    raise CorpusFormatError(f"line {line_no}: duplicate tweet_id {record.tweet_id!r}")
                duplicates += 1
                continue
            seen.add(record.tweet_id)
            tweets.append(record)
    return Corpus(tweets=tweets, skipped_count=skipped, duplicate_count=duplicates)


def random_network(rng: np.random.Generator, max_nodes: int = 20, edge_prob: float | None = None) -> CommNetwork:
    n = int(rng.integers(2, max_nodes + 1))
    p = float(rng.uniform(0.05, 0.5)) if edge_prob is None else edge_prob
    net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
    names = [f"n{i:02d}" for i in range(n)]
    net.nodes.update(names)
    for a in names:
        for b in names:
            if a != b and rng.random() < p:
                net.edges[(a, b)] = int(rng.integers(1, 6))
    return net


def oracle_gexf(net: CommNetwork) -> str:
    """The GEXF export as first written: an ElementTree, ``indent`` and
    ``tostring`` with the XML declaration, then a final newline."""
    root = ET.Element("gexf", {"xmlns": "http://www.gexf.net/1.2draft", "version": "1.2"})
    graph = ET.SubElement(root, "graph", {"defaultedgetype": "directed"})
    attrs = ET.SubElement(graph, "attributes", {"class": "node"})
    ET.SubElement(attrs, "attribute", {"id": "0", "title": "stance", "type": "string"})
    nodes_el = ET.SubElement(graph, "nodes")
    for node in sorted(net.nodes):
        node_el = ET.SubElement(nodes_el, "node", {"id": node, "label": node})
        values = ET.SubElement(node_el, "attvalues")
        stance = net.node_attr.get(node, Stance.UNCLASSIFIED.value)
        ET.SubElement(values, "attvalue", {"for": "0", "value": stance})
    edges_el = ET.SubElement(graph, "edges")
    for i, (src, dst, w) in enumerate(net.sorted_edges()):
        ET.SubElement(
            edges_el,
            "edge",
            {"id": str(i), "source": src, "target": dst, "weight": str(w)},
        )
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def random_spectral_network(rng: np.random.Generator, max_nodes: int = 15) -> CommNetwork:
    """Strongly connected weighted digraph (a cycle plus random chords), so the
    dominant eigenpair is well defined for oracle comparisons."""
    n = int(rng.integers(4, max_nodes + 1))
    names = [f"n{i:02d}" for i in range(n)]
    net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
    net.nodes.update(names)
    for i in range(n):
        net.edges[(names[i], names[(i + 1) % n])] = int(rng.integers(1, 10))
    for a in names:
        for b in names:
            if a != b and (a, b) not in net.edges and rng.random() < 0.35:
                net.edges[(a, b)] = int(rng.integers(1, 10))
    return net


def oracle_reciprocity(net: CommNetwork) -> float:
    """Brute force over all ordered node pairs."""
    nodes = sorted(net.nodes)
    total = 0
    reciprocated = 0
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            if (a, b) in net.edges:
                total += 1
                if (b, a) in net.edges:
                    reciprocated += 1
    if total == 0:
        return 0.0
    return reciprocated / total


def oracle_density(net: CommNetwork) -> float:
    nodes = sorted(net.nodes)
    n = len(nodes)
    if n < 2:
        return 0.0
    present = sum(
        1 for a in nodes for b in nodes if a != b and (a, b) in net.edges
    )
    return present / (n * (n - 1))


def oracle_eigencentrality(net: CommNetwork) -> tuple[list[str], np.ndarray]:
    """Dense eigendecomposition of the received-orientation adjacency.

    Returns nodes in sorted order and the unit dominant eigenvector with a
    nonnegative orientation.
    """
    nodes = sorted(net.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for (x, y), w in net.edges.items():
        a[index[x], index[y]] = w
    values, vectors = np.linalg.eig(a)
    dominant = int(np.argmax(values.real))
    vec = vectors[:, dominant].real
    vec = vec / np.linalg.norm(vec)
    if vec.sum() < 0:
        vec = -vec
    return nodes, vec


def oracle_top_k(scores: dict[str, float], k: int) -> set[str]:
    """Accounts scoring at least the k-th largest score, ties included
    (every account when there are fewer than k)."""
    if not scores:
        return set()
    ordered = sorted(scores.values(), reverse=True)
    threshold = ordered[min(k, len(ordered)) - 1]
    return {u for u, s in scores.items() if s >= threshold}


def oracle_rank(scores: dict[str, float]) -> dict[str, int]:
    """Competition ranks by counting, for each account, the strictly better
    scores (the generator ``netmetrics._rank`` once ran)."""
    values = sorted(scores.values(), reverse=True)
    return {u: 1 + sum(1 for v in values if v > s) for u, s in scores.items()}


def two_clique_graph(size_a: int, size_b: int) -> tuple[HashtagGraph, str, str]:
    """Two unit-weight cliques joined by one bridge (a_zz - b_zz).

    Returns the graph and the seed nodes (a00 at +1, b00 at -1 by the
    caller's convention).  Seeds are not bridge endpoints, and the bridge
    endpoints sort after their cliquemates, so within a propagation pass a
    bridge endpoint always sees its fully labeled clique before it fires;
    that makes sign recovery hold for any pair of clique sizes >= 3.
    """
    graph = HashtagGraph()
    a_nodes = [f"a{i:02d}" for i in range(size_a - 1)] + ["a_zz"]
    b_nodes = [f"b{i:02d}" for i in range(size_b - 1)] + ["b_zz"]
    for names in (a_nodes, b_nodes):
        for i, u in enumerate(names):
            graph.add_node(u)
            for v in names[:i]:
                graph.add_edge(u, v, 1)
    graph.add_edge("a_zz", "b_zz", 1)
    return graph, "a00", "b00"


def oracle_propagate_labels(graph: HashtagGraph, config: PropagationConfig | None = None) -> dict[str, float]:
    """``hashtag_graph.propagate_labels`` as a full rescan: every pass visits
    every unlabeled node in lexicographic order, up to the pass cap."""
    config = config or PropagationConfig()
    if not graph.labels:
        raise ValueError("graph has no seeded nodes")
    for node in graph.labels:
        if node not in graph.adj:
            raise ValueError(f"label on unknown node {node!r}")

    labels = dict(graph.labels)
    order = sorted(graph.adj)
    total = len(order)
    limit = min(total, config.max_passes)

    for pass_no in range(limit):
        if len(labels) == total:
            break
        slack = pass_no // config.gamma
        progressed = False
        candidates = False
        for node in order:
            if node in labels:
                continue
            nbrs = graph.adj[node]
            labeled_nbrs = [m for m in sorted(nbrs) if m in labels]
            if not labeled_nbrs:
                continue  # the weighted average is undefined without labeled neighbors
            candidates = True
            if len(labeled_nbrs) + slack < len(nbrs):
                continue
            score = 0.0
            denom = 0.0
            if config.unlabeled_as_zero:
                for m in sorted(nbrs):
                    w = nbrs[m]
                    score += labels.get(m, 0.0) * w
                    denom += w
            else:
                for m in labeled_nbrs:
                    w = nbrs[m]
                    score += labels[m] * w
                    denom += w
            labels[node] = score / denom
            progressed = True
        if not progressed and not candidates:
            break  # remaining nodes have no labeled neighbor and never will
    return labels


def random_connected_graph(rng: np.random.Generator, max_nodes: int = 50) -> HashtagGraph:
    """Random spanning tree plus extra weighted edges."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"h{i:02d}" for i in range(n)]
    graph = HashtagGraph()
    for node in names:
        graph.add_node(node)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        graph.add_edge(names[i], names[j], int(rng.integers(1, 6)))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j and graph.weight(names[i], names[j]) == 0:
            graph.add_edge(names[i], names[j], int(rng.integers(1, 6)))
    return graph


# The stage facts as they were once written out by hand in stancelab.pipeline,
# before the stage table derived them: the bundle's file list and each cached
# intermediate's producing stage and last reading stage.
_ORACLE_NETWORKS = ("retweet", "mention", "reply", "all_communication", "reciprocal")


def oracle_bundle_files(export_formats) -> dict[str, str]:
    """Every bundle file but the manifest, mapped to the stage that writes it."""
    out = {
        "corpus.jsonl": "ingest",
        "hashtag_graph.json": "hashtags",
        "hashtag_labels.csv": "propagate",
        "stance.csv": "classify",
        "metrics.json": "metrics",
        "influencer_summary.json": "metrics",
        "bot_sweep.csv": "annotations",
        "concentration.json": "annotations",
    }
    for name in _ORACLE_NETWORKS:
        out[f"networks/{name}.json"] = "networks"
        for fmt in export_formats:
            out[f"networks/{name}.{'edges.csv' if fmt == 'csv' else fmt}"] = "networks"
    for group in ("believer", "disbeliever"):
        out[f"super_spreaders_{group}.csv"] = out[f"super_friends_{group}.csv"] = "metrics"
        out[f"text/frequencies_{group}.csv"] = out[f"text/topics_{group}.json"] = "text"
    return out


def oracle_producers() -> dict[str, str]:
    return {
        "corpus": "ingest",
        "hashtag_graph": "hashtags",
        "labels": "propagate",
        "stance": "classify",
        **{name: "networks" for name in _ORACLE_NETWORKS},
    }


def oracle_last_readers() -> dict[str, str]:
    """As stated by hand, which gave the reply network, read by no stage, the
    networks' common last reader."""
    return {
        "corpus": "annotations",
        "hashtag_graph": "propagate",
        "labels": "classify",
        "stance": "annotations",
        **{name: "metrics" for name in _ORACLE_NETWORKS},
    }


def oracle_config_readers() -> dict[str, str]:
    """Each config field but the five required paths, mapped by hand to the
    stage that reads it."""
    return {
        "strict_ingest": "ingest",
        "min_cooccurrence": "hashtags",
        **dict.fromkeys(("gamma", "max_passes", "unlabeled_as_zero"), "propagate"),
        **dict.fromkeys(("presence_weighting", "include_retweet_hashtags"), "classify"),
        **dict.fromkeys(("include_retweet_mentions", "reciprocal_base", "export_formats"), "networks"),
        "top_k": "metrics",
        **dict.fromkeys(
            (
                "lda_topics",
                "lda_alpha",
                "lda_beta",
                "lda_iterations",
                "lda_pool_by_user",
                "rng_seed",
                "stopword_file",
                "topics_include_hashtags",
                "topics_exclude_hashtags_in_report",
                "frequencies_include_hashtags",
                "top_n_words",
            ),
            "text",
        ),
        **dict.fromkeys(("sweep_grid", "sweep_include_global"), "annotations"),
    }


def oracle_lda_fit(docs, k: int, *, alpha: float | None = None, beta: float = 0.01, iterations: int, seed: int = 0, draws=None):
    """``textlab.lda_fit``'s sampler as a per-token NumPy loop (one scalar
    ``rng.random()`` and one ``np.cumsum``/``np.searchsorted`` per token
    update); returns ``(phi, theta)``.  A ``draws`` list receives each
    update's cumulative weights and the point searched for, as floats."""
    alpha = 50.0 / k if alpha is None else alpha
    usable = [doc for doc in docs if doc.tokens]
    vocab = sorted({tok for doc in usable for tok in doc.tokens})
    word_index = {w: i for i, w in enumerate(vocab)}
    token_word = np.array([word_index[tok] for doc in usable for tok in doc.tokens], dtype=np.intp)
    token_doc = np.array([d for d, doc in enumerate(usable) for _ in doc.tokens], dtype=np.intp)
    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=len(token_word))
    n_dt = np.zeros((len(usable), k), dtype=np.int64)
    n_tw = np.zeros((k, len(vocab)), dtype=np.int64)
    n_t = np.zeros(k, dtype=np.int64)
    np.add.at(n_dt, (token_doc, z), 1)
    np.add.at(n_tw, (z, token_word), 1)
    np.add.at(n_t, z, 1)
    v_beta = len(vocab) * beta
    for _ in range(iterations):
        for i in range(len(token_word)):
            d, w, t = token_doc[i], token_word[i], z[i]
            n_dt[d, t] -= 1
            n_tw[t, w] -= 1
            n_t[t] -= 1
            weights = (n_dt[d] + alpha) * (n_tw[:, w] + beta) / (n_t + v_beta)
            cum = np.cumsum(weights)
            point = rng.random() * cum[-1]
            if draws is not None:
                draws.append((cum.tolist(), float(point)))
            t_new = int(np.searchsorted(cum, point, side="right"))
            if t_new == k:
                t_new = k - 1
            z[i] = t_new
            n_dt[d, t_new] += 1
            n_tw[t_new, w] += 1
            n_t[t_new] += 1
    phi = (n_tw + beta) / (n_t + v_beta)[:, None]
    theta = (n_dt + alpha) / (n_dt.sum(axis=1) + k * alpha)[:, None]
    return phi, theta


def oracle_tokenize_text(text: str, stopwords: frozenset[str], include_hashtags: bool = False) -> tuple[str, ...]:
    """One token sequence per call, with its own URL, mention and hashtag
    pass (the tokenizer ``textlab`` had before ``tokenize_text_both``)."""
    text = re.sub(r"(?:https?://\S+|www\.\S+)", " ", text, flags=re.IGNORECASE)
    text = re.sub(r"@\w+", " ", text)

    def words(fragment):
        return [w for w in re.findall(r"[^\W_]+", fragment.casefold()) if len(w) >= 2 and w not in stopwords]

    tokens: list[str] = []
    pos = 0
    for match in re.finditer(r"#\w+", text):
        tokens.extend(words(text[pos : match.start()]))
        if include_hashtags:
            tag = normalize_hashtag(match.group(0))
            if tag and len(tag) >= 2 and tag not in stopwords:
                tokens.append(tag)
        pos = match.end()
    tokens.extend(words(text[pos:]))
    return tuple(tokens)
