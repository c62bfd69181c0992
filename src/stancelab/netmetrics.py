"""Network polarization metrics and influencer identification.

Echo-chamberness of a directed graph is (r * d) ** (1/3) where r is the
fraction of edges whose reverse also exists and d the unweighted density
|E| / (|V| * (|V| - 1)).  Influencers are ranked on a "received interactions"
base network (mentioned-by plus retweeted-by) with three measures: weighted
received count, eigenvector centrality, and distinct-source count.
"""

from __future__ import annotations

import logging
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
    """
    order = sorted(net.nodes)
    n = len(order)
    if n == 0:
        return {}
    index = {node: i for i, node in enumerate(order)}
    items = net.sorted_edges()
    rows = np.array([index[a] for a, _, _ in items], dtype=np.intp)
    cols = np.array([index[b] for _, b, _ in items], dtype=np.intp)
    weights = np.array([w for _, _, w in items], dtype=np.float64)

    vec = np.full(n, 1.0 / np.sqrt(n))
    step = float("inf")
    for _ in range(max_iter):
        nxt = vec.copy()
        if len(items):
            np.add.at(nxt, rows, weights * vec[cols])
        nxt /= np.linalg.norm(nxt)
        step = float(np.max(np.abs(nxt - vec)))
        vec = nxt
        if step < tol:
            break
    else:
        logger.warning(
            "eigenvector centrality did not converge in %d steps on %d nodes; last max-abs step %.3g (tol %.3g)",
            max_iter, n, step, tol,
        )
    return {node: float(vec[index[node]]) for node in order}


@dataclass(frozen=True)
class InfluencerReport:
    """Per-account scores/ranks on the three influence measures.

    measures: (weighted received count, eigenvector centrality, distinct
    sources).  ``super_accounts`` is the union of the top-k per measure with
    ties at the k-th rank included; ``fraction`` relates it to the analyzed
    network's node count.
    """

    k: int
    measures: dict[str, tuple[float, float, float]]
    ranks: dict[str, tuple[int, int, int]]
    super_accounts: frozenset[str]
    fraction: float


def _rank(scores: dict[str, float]) -> dict[str, int]:
    # competition ranking: 1 + number of strictly better scores
    values = sorted(scores.values())
    return {u: 1 + len(values) - bisect_right(values, s) for u, s in scores.items()}


def super_spreaders(base: CommNetwork, k: int = 3) -> InfluencerReport:
    """Top-k union over the three measures on the received-interactions base."""
    if k < 1:
        raise ValueError("k must be >= 1")
    received: dict[str, float] = {node: 0.0 for node in base.nodes}
    sources: dict[str, float] = {node: 0.0 for node in base.nodes}
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
    write_csv(
        path,
        ("user_id", "measure1", "measure2", "measure3", "is_super"),
        (
            (
                user_id,
                int(m1) if float(m1).is_integer() else m1,
                m2,
                int(m3) if float(m3).is_integer() else m3,
                str(user_id in report.super_accounts).lower(),
            )
            for user_id, (m1, m2, m3) in sorted(report.measures.items())
        ),
    )
