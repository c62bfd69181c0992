"""Directed weighted user-user communication networks.

One network per interaction kind (retweet / mention / reply), their weighted
union ("all communication", whose node set also includes every tweet author),
the reciprocal subnetwork, and stance-filtered subgraphs.  Edge direction is
actor -> target; self-interactions are excluded from edges but tallied in
``self_loop_count``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, InteractionKind, extract_interactions
from .fileio import read_json, write_csv, write_json
from .stance import Stance, StanceTable

__all__ = [
    "NetworkKind",
    "CommNetwork",
    "build_network",
    "all_communication",
    "reciprocal_subnetwork",
    "group_subgraph",
    "attach_stances",
    "transpose",
    "export_graph",
    "read_network_json",
    "write_network_json",
]


class NetworkKind(str, Enum):
    RETWEET = "retweet"
    MENTION = "mention"
    REPLY = "reply"
    ALL_COMMUNICATION = "all_communication"
    RECIPROCAL = "reciprocal"
    INFLUENCE_BASE = "influence_base"


_BUILDABLE = {NetworkKind.RETWEET, NetworkKind.MENTION, NetworkKind.REPLY}


@dataclass
class CommNetwork:
    kind: NetworkKind
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    node_attr: dict[str, str] = field(default_factory=dict)
    self_loop_count: int = field(default=0, compare=False)
    corpus_digest: str | None = field(default=None, compare=False)

    def add_edge(self, src: str, dst: str, weight: int = 1) -> None:
        if src == dst:
            raise ValueError(f"self-loop on {src!r} not allowed")
        if weight < 1:
            raise ValueError(f"edge weight must be >= 1, got {weight}")
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + weight

    def weight(self, src: str, dst: str) -> int:
        return self.edges.get((src, dst), 0)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(self.edges.values())

    def is_symmetric(self) -> bool:
        return all((b, a) in self.edges for (a, b) in self.edges)

    def sorted_edges(self) -> list[tuple[str, str, int]]:
        return [(a, b, self.edges[(a, b)]) for a, b in sorted(self.edges)]


def build_network(
    corpus: Corpus,
    kind: NetworkKind,
    *,
    include_retweet_mentions: bool = True,
) -> CommNetwork:
    """Per-kind network: edge (a, b) counts a's retweets/mentions/replies of b.

    ``include_retweet_mentions=False`` drops mention entries carried inside
    retweets.
    """
    if kind not in _BUILDABLE:
        raise ValueError(f"cannot build a {kind.value} network directly")
    wanted = InteractionKind(kind.value)
    net = CommNetwork(kind=kind, corpus_digest=corpus.digest())
    for t in corpus.tweets:
        for inter in extract_interactions(t):
            if inter.kind is not wanted:
                continue
            if wanted is InteractionKind.MENTION and t.is_retweet and not include_retweet_mentions:
                continue
            if inter.is_self:
                net.self_loop_count += 1
                continue
            net.add_edge(inter.source, inter.target)
    return net


def all_communication(
    retweet: CommNetwork,
    mention: CommNetwork,
    reply: CommNetwork,
    corpus: Corpus,
) -> CommNetwork:
    """Weighted edge union of the three kind networks.

    Tweeting contributes nodes, not edges, so every corpus author appears
    even when isolated.  All inputs must come from the given corpus.
    """
    parts = {NetworkKind.RETWEET: retweet, NetworkKind.MENTION: mention, NetworkKind.REPLY: reply}
    digest = corpus.digest()
    for kind, net in parts.items():
        if net.kind is not kind:
            raise ValueError(f"expected a {kind.value} network, got {net.kind.value}")
        if net.corpus_digest is not None and net.corpus_digest != digest:
            raise ValueError(f"{kind.value} network was built from a different corpus")
    combined = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION, corpus_digest=digest)
    for net in parts.values():
        combined.nodes.update(net.nodes)
        for (src, dst), w in net.edges.items():
            combined.edges[(src, dst)] = combined.edges.get((src, dst), 0) + w
        combined.self_loop_count += net.self_loop_count
    combined.nodes.update(corpus.users)
    return combined


def reciprocal_subnetwork(net: CommNetwork) -> CommNetwork:
    """Keep edge (a, b) only when (b, a) is also present; weights preserved.

    The node set is unchanged, so the operation is idempotent.
    """
    edges = {(a, b): w for (a, b), w in net.edges.items() if (b, a) in net.edges}
    return CommNetwork(
        kind=NetworkKind.RECIPROCAL,
        nodes=set(net.nodes),
        edges=edges,
        node_attr=dict(net.node_attr),
        corpus_digest=net.corpus_digest,
    )


def group_subgraph(net: CommNetwork, table: StanceTable, groups: Iterable[Stance]) -> CommNetwork:
    """Induced subgraph on nodes whose stance is in ``groups``.

    Nodes missing from the table (e.g. accounts that never authored a tweet)
    count as unclassified.
    """
    wanted = set(groups)
    keep = {n for n in net.nodes if table.stance_of(n) in wanted}
    return CommNetwork(
        kind=net.kind,
        nodes=keep,
        edges={(a, b): w for (a, b), w in net.edges.items() if a in keep and b in keep},
        node_attr={n: v for n, v in net.node_attr.items() if n in keep},
        corpus_digest=net.corpus_digest,
    )


def attach_stances(net: CommNetwork, table: StanceTable) -> CommNetwork:
    """Copy of the network with a stance attribute on every node."""
    return CommNetwork(
        kind=net.kind,
        nodes=set(net.nodes),
        edges=dict(net.edges),
        node_attr={n: table.stance_of(n).value for n in net.nodes},
        self_loop_count=net.self_loop_count,
        corpus_digest=net.corpus_digest,
    )


def transpose(net: CommNetwork) -> CommNetwork:
    return CommNetwork(
        kind=net.kind,
        nodes=set(net.nodes),
        edges={(b, a): w for (a, b), w in net.edges.items()},
        node_attr=dict(net.node_attr),
        corpus_digest=net.corpus_digest,
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(net: CommNetwork, path: Path) -> None:
    lines = [f"digraph {net.kind.value} {{"]
    for node in sorted(net.nodes):
        stance = net.node_attr.get(node)
        attr = f' [stance="{stance}"]' if stance else ""
        lines.append(f"  {_dot_quote(node)}{attr};")
    for src, dst, w in net.sorted_edges():
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [weight={w}];")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_GEXF_NS = "http://www.gexf.net/1.2draft"


def _export_gexf(net: CommNetwork, path: Path) -> None:
    root = ET.Element("gexf", {"xmlns": _GEXF_NS, "version": "1.2"})
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
    payload = ET.tostring(root, encoding="unicode", xml_declaration=True)
    path.write_text(payload + "\n", encoding="utf-8")


def _export_edge_csv(net: CommNetwork, path: Path) -> None:
    write_csv(path, ("src", "dst", "weight"), net.sorted_edges())


_EXPORTERS = {"dot": _export_dot, "gexf": _export_gexf, "csv": _export_edge_csv}


def export_graph(net: CommNetwork, fmt: str, path: str | Path) -> None:
    """Write the network as DOT, GEXF 1.2, or edge CSV (src,dst,weight)."""
    try:
        exporter = _EXPORTERS[fmt.lower()]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}; use dot, gexf, or csv") from None
    exporter(net, Path(path))


def write_network_json(net: CommNetwork, path: str | Path) -> None:
    """The pipeline's cached network, full fidelity: it keeps the isolated
    nodes, stance attributes and diagnostics that the edge CSV drops."""
    write_json(
        path,
        {
            "kind": net.kind.value,
            "nodes": sorted(net.nodes),
            "edges": [[a, b, w] for a, b, w in net.sorted_edges()],
            "node_attr": {n: net.node_attr[n] for n in sorted(net.node_attr)},
            "self_loop_count": net.self_loop_count,
            "corpus_digest": net.corpus_digest,
        },
    )


def read_network_json(path: str | Path) -> CommNetwork:
    data = read_json(path)
    return CommNetwork(
        kind=NetworkKind(data["kind"]),
        nodes=set(data["nodes"]),
        edges={(a, b): int(w) for a, b, w in data["edges"]},
        node_attr=dict(data.get("node_attr", {})),
        self_loop_count=int(data.get("self_loop_count", 0)),
        corpus_digest=data.get("corpus_digest"),
    )
