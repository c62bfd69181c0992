"""Network polarization metrics and influencer identification.

Echo-chamberness of a directed graph is (r * d) ** (1/3) where r is the
fraction of edges whose reverse also exists and d the unweighted density
|E| / (|V| * (|V| - 1)).  Influencers are ranked on a "received interactions"
base network (mentioned-by plus retweeted-by) with three measures: weighted
received count, eigenvector centrality, and distinct-source count.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .commnet import CommNetwork, NetworkKind, transpose, weighted_union
from .fileio import write_csv

__all__ = [
    "EchoResult",
    "InfluencerReport",
    "reciprocity",
    "density",
    "echo_chamberness",
    "influence_base",
    "eigenvector_centrality",
    "super_spreaders",
    "super_friends",
    "write_influencer_csv",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EchoResult:
    reciprocity: float
    density: float
    echo_chamberness: float
    node_count: int
    edge_count: int


def reciprocity(net: CommNetwork) -> float:
    """Fraction of directed edges (a, b) with (b, a) present; 0 when edgeless.

    A symmetric graph has reciprocity 1.
    """
    if not net.edges:
        return 0.0
    reciprocated = sum(1 for (a, b) in net.edges if (b, a) in net.edges)
    return reciprocated / len(net.edges)


def density(net: CommNetwork) -> float:
    """Distinct directed edges over |V| * (|V| - 1); 0 below two nodes.

    Edge weights are ignored: this is the plain graph density that the
    echo-chamberness formula consumes.  Self-loops are never stored.
    """
    n = len(net.nodes)
    if n < 2:
        return 0.0
    return len(net.edges) / (n * (n - 1))


def echo_chamberness(net: CommNetwork) -> EchoResult:
    r = reciprocity(net)
    d = density(net)
    return EchoResult(
        reciprocity=r,
        density=d,
        echo_chamberness=(r * d) ** (1.0 / 3.0),
        node_count=len(net.nodes),
        edge_count=len(net.edges),
    )


def influence_base(mention: CommNetwork, retweet: CommNetwork) -> CommNetwork:
    """Sum of the mentioned-by and retweeted-by networks.

    Stored edge (x, y) means "x was mentioned/retweeted by y", i.e. the
    transpose of the actor -> target orientation; received counts are
    therefore out-degrees of this base.
    """
    parts = {NetworkKind.MENTION: transpose(mention), NetworkKind.RETWEET: transpose(retweet)}
    return weighted_union(NetworkKind.INFLUENCE_BASE, parts)


def eigenvector_centrality(
    net: CommNetwork,
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> dict[str, float]:
    """Power iteration for the dominant eigenvector of the weighted adjacency.

    Edge (x, y) contributes w * score(y) to score(x).  The iteration runs on
    A + I, which leaves the dominant eigenvector unchanged but keeps the
    update well defined on acyclic adjacencies and damps oscillation; on a
    disconnected graph the mass concentrates on the spectrally dominant
    component and other nodes tend to 0.  The result is L2-normalized.
    When ``max_iter`` steps end with the last step's largest change still at
    or above ``tol``, it logs a warning and returns the last iterate.

    An acyclic graph with edges (found by Kahn's algorithm) makes A
    nilpotent, so A + I has the single eigenvalue 1 and the iterates creep
    towards their limit at O(1/k).  That limit is A^L * 1 normalized, where
    L is the number of edges on a longest path; it is returned directly, as
    L steps of A normalized at each step, with no warning.  On the star
    ``X -> a..e`` X scores 1.0 and every leaf 0.0.
    """
    run = _eigenvector_run(net, tol, max_iter)
    if not run.converged:
        logger.warning(
            "eigenvector centrality did not converge in %d steps on %d nodes; last max-abs step %.3g (tol %.3g)",
            max_iter, len(run.scores), run.last_step, tol,
        )
    return run.scores


@dataclass(frozen=True)
class _EigenRun:
    """What ``_eigenvector_run`` did: the scores, the steps taken, the largest
    absolute change in the last one (inf before any), whether the base is
    acyclic, and whether the scores are converged: the last step changed
    less than ``tol``, or the base is acyclic with edges and they are the limit."""

    scores: dict[str, float]
    steps: int
    last_step: float
    acyclic: bool
    converged: bool


def _eigenvector_run(net: CommNetwork, tol: float, max_iter: int) -> _EigenRun:
    """``eigenvector_centrality``, with how its iteration ended."""
    order = sorted(net.nodes)
    n = len(order)
    if n == 0:
        return _EigenRun({}, 0, math.inf, True, True)
    index = dict(zip(order, range(n)))
    sources = [index[a] for a, _ in net.edges]
    targets = [index[b] for _, b in net.edges]
    longest = _longest_path(n, sources, targets)
    # The edges in (source, target) order: the sums below add them in it.
    rows = np.array(sources, dtype=np.intp)
    cols = np.array(targets, dtype=np.intp)
    by_pair = np.argsort(rows * n + cols)
    rows, cols = rows[by_pair], cols[by_pair]
    weights = np.fromiter(net.edges.values(), dtype=np.float64, count=len(net.edges))[by_pair]

    vec = np.full(n, 1.0 / np.sqrt(n))
    if len(rows) and longest is not None:  # then longest >= 1
        for _ in range(longest):
            prev, vec = vec, np.bincount(rows, weights * vec[cols], minlength=n)
            vec /= np.linalg.norm(vec)
        return _EigenRun(dict(zip(order, vec.tolist())), longest, float(np.max(np.abs(vec - prev))), True, True)
    # (A + I) * v as one sum per node: its own term first, then its edges in order.
    terms_of = np.concatenate((np.arange(n), rows))
    step = math.inf
    steps = 0
    while steps < max_iter:
        nxt = np.bincount(terms_of, np.concatenate((vec, weights * vec[cols])))
        nxt /= np.linalg.norm(nxt)
        step = float(np.max(np.abs(nxt - vec)))
        vec = nxt
        steps += 1
        if step < tol:
            break
    return _EigenRun(dict(zip(order, vec.tolist())), steps, step, longest is not None, step < tol)


def _longest_path(n: int, sources: list[int], targets: list[int]) -> int | None:
    """Edges on a longest path of the graph with edges sources[e] ->
    targets[e] over nodes 0..n-1, or None when it has a cycle (Kahn's
    algorithm: a cycle keeps some node's in-degree above 0)."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in zip(sources, targets):
        succ[a].append(b)
        indegree[b] += 1
    depth = [0] * n
    ready = [v for v in range(n) if not indegree[v]]
    for v in ready:  # grows as nodes lose their last incoming edge
        for w in succ[v]:
            if depth[w] <= depth[v]:
                depth[w] = depth[v] + 1
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return max(depth) if len(ready) == n else None


@dataclass(frozen=True)
class InfluencerReport:
    """Per-account scores/ranks on the three influence measures.

    measures: (weighted received count, eigenvector centrality, distinct
    sources); the two counts are ints.  ``super_accounts`` is the union of
    the top-k per measure with ties at the k-th rank included; ``fraction``
    relates it to the analyzed network's node count.
    """

    k: int
    measures: dict[str, tuple[int, float, int]]
    ranks: dict[str, tuple[int, int, int]]
    super_accounts: frozenset[str]
    fraction: float


def _rank(scores: dict[str, float]) -> dict[str, int]:
    # competition ranking: 1 + number of strictly better scores, found once per distinct score
    values = sorted(scores.values())
    rank_of = {s: 1 + len(values) - bisect_right(values, s) for s in set(values)}
    return {u: rank_of[s] for u, s in scores.items()}


def super_spreaders(base: CommNetwork, k: int = 3) -> InfluencerReport:
    """Top-k union over the three measures on the received-interactions base."""
    if k < 1:
        raise ValueError("k must be >= 1")
    received = dict.fromkeys(base.nodes, 0)
    sources = dict.fromkeys(base.nodes, 0)
    for (x, _), w in base.edges.items():
        received[x] += w
        sources[x] += 1
    centrality = eigenvector_centrality(base)

    rank1, rank2, rank3 = _rank(received), _rank(centrality), _rank(sources)
    measures = {u: (received[u], centrality[u], sources[u]) for u in base.nodes}
    ranks = {u: (rank1[u], rank2[u], rank3[u]) for u in base.nodes}
    # a competition rank of at most k is a top-k score, ties at the k-th included
    super_accounts = {u for u, r in ranks.items() if min(r) <= k}
    fraction = len(super_accounts) / len(base.nodes) if base.nodes else 0.0
    return InfluencerReport(
        k=k,
        measures=measures,
        ranks=ranks,
        super_accounts=frozenset(super_accounts),
        fraction=fraction,
    )


def super_friends(reciprocal: CommNetwork, k: int = 3) -> InfluencerReport:
    """Same measures on a reciprocal network; input must be symmetric."""
    if not reciprocal.is_symmetric():
        raise ValueError("super_friends requires a symmetric (reciprocal) network")
    # flip to received orientation so measure 1 counts what each account got
    return super_spreaders(transpose(reciprocal), k)


def write_influencer_csv(report: InfluencerReport, path: str | Path) -> None:
    supers = report.super_accounts
    write_csv(
        path,
        ("user_id", "measure1", "measure2", "measure3", "is_super"),
        [
            (user_id, *measures, "true" if user_id in supers else "false")
            for user_id, measures in sorted(report.measures.items())
        ],
    )
