"""Hashtag co-occurrence graph and seeded polarity propagation.

The graph is undirected and weighted: an edge's weight counts how many
distinct tweets contain both endpoint hashtags (a tweet contributes at most
one to each pair, however often it repeats a tag).  Seeds carry polarity
-1 or +1; propagation spreads a weighted average outward, relaxing the
labeled-neighbor quorum by a slack term that grows with the pass count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from pathlib import Path

from .corpus import Corpus, normalize_hashtag
from .fileio import read_csv, read_json, write_csv, write_json

__all__ = [
    "HashtagGraph",
    "SeedSpec",
    "PropagationConfig",
    "build_cooccurrence_graph",
    "seed_labels",
    "propagate_labels",
    "read_labels_csv",
    "write_labels_csv",
    "read_graph_json",
    "write_graph_json",
]


@dataclass
class HashtagGraph:
    """Undirected weighted graph over hashtag tokens, plus partial labels.

    ``adj`` keeps a symmetric adjacency (``adj[a][b] == adj[b][a]``).
    Self-loops are rejected and stored weights are >= 1; labels stay in
    [-1, +1].  Isolated nodes are allowed (empty inner dict).
    """

    adj: dict[str, dict[str, int]] = field(default_factory=dict)
    labels: dict[str, float] = field(default_factory=dict)

    @property
    def nodes(self) -> set[str]:
        return set(self.adj)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def add_node(self, node: str) -> None:
        self.adj.setdefault(node, {})

    def add_edge(self, a: str, b: str, weight: int) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r} not allowed")
        if weight < 1:
            raise ValueError(f"edge weight must be >= 1, got {weight}")
        self.adj.setdefault(a, {})[b] = weight
        self.adj.setdefault(b, {})[a] = weight

    def weight(self, a: str, b: str) -> int:
        return self.adj.get(a, {}).get(b, 0)

    def edges(self) -> list[tuple[str, str, int]]:
        """Each undirected edge once, endpoints ordered, sorted."""
        out = [(a, b, w) for a, nbrs in self.adj.items() for b, w in nbrs.items() if a < b]
        out.sort()
        return out

    def set_label(self, node: str, value: float) -> None:
        if node not in self.adj:
            raise KeyError(node)
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"label for {node!r} out of [-1, 1]: {value}")
        self.labels[node] = value

    def copy(self) -> "HashtagGraph":
        return HashtagGraph(
            adj={a: dict(nbrs) for a, nbrs in self.adj.items()},
            labels=dict(self.labels),
        )


def build_cooccurrence_graph(corpus: Corpus, min_weight: int = 1) -> HashtagGraph:
    """Co-occurrence graph over all hashtags in the corpus.

    Edge weight = number of distinct tweets containing both tags; edges below
    ``min_weight`` are dropped, but every hashtag stays as a node.
    """
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    counts: dict[tuple[str, str], int] = {}
    graph = HashtagGraph()
    for t in corpus.tweets:
        tags = sorted(set(t.hashtags))
        for tag in tags:
            graph.add_node(tag)
        for a, b in combinations(tags, 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    for (a, b), w in counts.items():
        if w >= min_weight:
            graph.add_edge(a, b, w)
    return graph


@dataclass(frozen=True)
class SeedSpec:
    """Seed hashtags with polarity labels restricted to -1 / +1."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for tag, label in self.entries:
            if label not in (-1, 1):
                raise ValueError(f"seed label for {tag!r} must be -1 or +1, got {label}")
            if normalize_hashtag(tag) != tag:
                raise ValueError(f"seed hashtag {tag!r} is not normalized")
            if seen.get(tag, label) != label:
                raise ValueError(f"contradictory seed labels for {tag!r}")
            seen[tag] = label

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, int]] | dict[str, int]) -> "SeedSpec":
        items = pairs.items() if isinstance(pairs, dict) else pairs
        entries = []
        for raw, label in items:
            tag = normalize_hashtag(raw)
            if tag is None:
                raise ValueError(f"empty seed hashtag from {raw!r}")
            entries.append((tag, int(label)))
        # drop exact duplicates, keep first occurrence order
        unique: list[tuple[str, int]] = []
        seen: set[tuple[str, int]] = set()
        for entry in entries:
            if entry not in seen:
                seen.add(entry)
                unique.append(entry)
        return cls(entries=tuple(unique))

    @classmethod
    def from_csv(cls, path: str | Path) -> "SeedSpec":
        """Seed file: CSV with header ``hashtag,label``, label in {-1, 1}."""
        pairs = []
        for line_no, row in read_csv(path, ("hashtag", "label")):
            try:
                pairs.append((row[0], int(row[1])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad label {row[1]!r}") from exc
        return cls.from_pairs(pairs)


def seed_labels(graph: HashtagGraph, seeds: SeedSpec) -> tuple[HashtagGraph, list[str]]:
    """Apply seeds to a copy of the graph.

    Returns the seeded graph (labels are exactly the applicable seeds) and
    the sorted list of seed hashtags that are absent from the graph.
    """
    seeded = graph.copy()
    seeded.labels = {}
    missing: list[str] = []
    for tag, label in seeds.entries:
        if tag in seeded.adj:
            seeded.labels[tag] = float(label)
        else:
            missing.append(tag)
    return seeded, sorted(set(missing))


@dataclass(frozen=True)
class PropagationConfig:
    """Propagation schedule.

    ``gamma`` controls how fast the quorum slack grows (slack = pass // gamma);
    passes stop at the node count or at ``max_passes``, whichever is first.
    With ``unlabeled_as_zero`` the averaging denominators include unlabeled
    neighbors, treating their label as 0.
    """

    gamma: int = 100
    max_passes: int = 1_000_000
    unlabeled_as_zero: bool = False

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


def propagate_labels(graph: HashtagGraph, config: PropagationConfig | None = None) -> dict[str, float]:
    """Spread seed polarities over the co-occurrence graph.

    Pass p visits unlabeled nodes in lexicographic order with slack
    l = p // gamma.  A node whose labeled-neighbor count plus slack reaches
    its degree takes the weight-averaged label of its labeled neighbors;
    updates are sequential, so a node labeled early in a pass counts for
    later nodes in the same pass.
    Nodes that never acquire a labeled neighbor stay out of the result.
    Seed labels are returned unchanged.

    The passes run as a worklist: a pass labels only the nodes that qualify,
    in position order, and a node that starts to qualify behind the current
    position waits for the next pass.  A pass in which no node qualifies
    labels nothing, so the run skips ahead to the first pass whose slack
    lets a node qualify; the result is the same.  The cost grows with
    edges times log nodes, not with passes times nodes.
    """
    config = config or PropagationConfig()
    if not graph.labels:
        raise ValueError("graph has no seeded nodes")
    for node in graph.labels:
        if node not in graph.adj:
            raise ValueError(f"label on unknown node {node!r}")

    adj = graph.adj
    labels = dict(graph.labels)
    order = sorted(adj)
    position = {node: i for i, node in enumerate(order)}
    limit = min(len(order), config.max_passes)
    # A node qualifies once it has a labeled neighbor and its deficit (degree
    # minus labeled neighbors) is at most the slack; both only grow easier.
    deficit = {node: len(nbrs) for node, nbrs in adj.items()}
    qualified: set[str] = set()
    waiting: list[tuple[int, int]] = []  # (deficit, position) of pending unqualified nodes, or stale
    ready: list[int] = []  # positions still to label in this pass
    carry: list[int] = []  # positions to label in the next pass

    def settle(node: str, at: int, slack: int) -> None:
        """Count ``node``, just labeled at position ``at``, for its neighbors."""
        for m in adj[node]:
            if m in labels:
                continue
            d = deficit[m] = deficit[m] - 1
            if m in qualified:
                continue
            j = position[m]
            if d > slack:
                heappush(waiting, (d, j))
                continue
            qualified.add(m)
            if j > at:
                heappush(ready, j)
            else:
                carry.append(j)

    for node in labels:  # seeds count from pass 0 on
        settle(node, len(order), 0)
    pass_no = 0
    while pass_no < limit:
        slack = pass_no // config.gamma
        while waiting:
            d, j = waiting[0]
            if order[j] not in qualified and deficit[order[j]] == d:
                if d > slack:
                    break
                qualified.add(order[j])
                carry.append(j)
            heappop(waiting)
        if not carry:
            if not waiting:
                break  # remaining nodes have no labeled neighbor and never will
            pass_no = config.gamma * waiting[0][0]  # the first pass in which one qualifies
            continue
        ready.extend(carry)
        carry.clear()
        heapify(ready)
        while ready:
            i = heappop(ready)
            node = order[i]
            nbrs = adj[node]
            score = 0.0
            denom = 0.0
            for m in sorted(nbrs):
                if config.unlabeled_as_zero or m in labels:
                    w = nbrs[m]
                    score += labels.get(m, 0.0) * w
                    denom += w
            labels[node] = score / denom
            settle(node, i, slack)
        pass_no += 1
    return labels


def write_labels_csv(labels: dict[str, float], path: str | Path) -> None:
    """Label output: CSV ``hashtag,label`` with full-precision decimals."""
    write_csv(path, ("hashtag", "label"), sorted(labels.items()))


def read_labels_csv(path: str | Path) -> dict[str, float]:
    labels: dict[str, float] = {}
    for line_no, row in read_csv(path, ("hashtag", "label")):
        try:
            labels[row[0]] = float(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: bad label {row[1]!r}") from exc
    return labels


def write_graph_json(graph: HashtagGraph, path: str | Path) -> None:
    """The pipeline's cached graph: sorted nodes, sorted edges and labels."""
    write_json(
        path,
        {
            "nodes": sorted(graph.adj),
            "edges": [[a, b, w] for a, b, w in graph.edges()],
            "labels": {n: graph.labels[n] for n in sorted(graph.labels)},
        },
    )


def read_graph_json(path: str | Path) -> HashtagGraph:
    data = read_json(path)
    graph = HashtagGraph()
    for node in data["nodes"]:
        graph.add_node(node)
    for a, b, w in data["edges"]:
        graph.add_edge(a, b, int(w))
    for node, value in data.get("labels", {}).items():
        graph.set_label(node, float(value))
    return graph
