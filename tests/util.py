"""Shared fixture builders and independent oracles for the test suite.

The oracles deliberately use different machinery than the implementations
they check (pair enumeration instead of edge-set lookups, dense
eigendecomposition instead of power iteration).
"""

from __future__ import annotations

import numpy as np

from stancelab.commnet import CommNetwork, NetworkKind
from stancelab.corpus import Corpus, TweetRecord, normalize_hashtag
from stancelab.hashtag_graph import HashtagGraph


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
