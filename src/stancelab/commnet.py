"""Directed weighted user-user communication networks.

One network per interaction kind (retweet / mention / reply), their weighted
union ("all communication", whose node set also includes every tweet author),
the reciprocal subnetwork, and stance-filtered subgraphs.  Edge direction is
actor -> target; self-interactions are excluded from edges but tallied in
``self_loop_count``.

The derivations (``reciprocal_subnetwork``, ``group_subgraph``,
``attach_stances``, ``transpose``) copy: the result shares no set or dict
with its input.  Each keeps the input's ``kind``, except that the reciprocal
subnetwork's kind is ``RECIPROCAL``.  ``attach_stances`` keeps the input's
``self_loop_count``; the other three set it to 0.  A union sums its parts'
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, InteractionKind, extract_interactions
from .fileio import read_json, write_csv, write_json, write_text
from .stance import Stance, StanceTable

__all__ = [
    "NetworkKind",
    "CommNetwork",
    "build_network",
    "weighted_union",
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
    net = CommNetwork(kind=kind)
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


def weighted_union(kind: NetworkKind, parts: dict[NetworkKind, CommNetwork]) -> CommNetwork:
    """Union of the parts' nodes with their edge weights and self-loop counts
    summed; each part must have the kind it is keyed by."""
    union = CommNetwork(kind=kind)
    for expected, net in parts.items():
        if net.kind is not expected:
            raise ValueError(f"expected a {expected.value} network, got {net.kind.value}")
        union.nodes.update(net.nodes)
        for edge, w in net.edges.items():
            union.edges[edge] = union.edges.get(edge, 0) + w
        union.self_loop_count += net.self_loop_count
    return union


def all_communication(
    retweet: CommNetwork,
    mention: CommNetwork,
    reply: CommNetwork,
    corpus: Corpus,
) -> CommNetwork:
    """Weighted edge union of the three kind networks.

    Tweeting contributes nodes, not edges, so every corpus author appears
    even when isolated.  The caller builds the networks from ``corpus``.
    """
    parts = {NetworkKind.RETWEET: retweet, NetworkKind.MENTION: mention, NetworkKind.REPLY: reply}
    combined = weighted_union(NetworkKind.ALL_COMMUNICATION, parts)
    combined.nodes.update(corpus.users)
    return combined


def reciprocal_subnetwork(net: CommNetwork) -> CommNetwork:
    """Keep edge (a, b) only when (b, a) is also present; weights preserved.

    The node set is unchanged, so the operation is idempotent.
    """
    edges = {(a, b): w for (a, b), w in net.edges.items() if (b, a) in net.edges}
    return replace(
        net, kind=NetworkKind.RECIPROCAL, self_loop_count=0,
        nodes=set(net.nodes), edges=edges, node_attr=dict(net.node_attr),
    )


def group_subgraph(net: CommNetwork, table: StanceTable, groups: Iterable[Stance]) -> CommNetwork:
    """Induced subgraph on nodes whose stance is in ``groups``.

    Nodes missing from the table (e.g. accounts that never authored a tweet)
    count as unclassified.
    """
    wanted = set(groups)
    keep = {n for n in net.nodes if table.stance_of(n) in wanted}
    edges = {(a, b): w for (a, b), w in net.edges.items() if a in keep and b in keep}
    node_attr = {n: v for n, v in net.node_attr.items() if n in keep}
    return replace(net, nodes=keep, edges=edges, node_attr=node_attr, self_loop_count=0)


def attach_stances(net: CommNetwork, table: StanceTable) -> CommNetwork:
    """Copy of the network with a stance attribute on every node."""
    stances = {n: table.stance_of(n).value for n in net.nodes}
    return replace(net, nodes=set(net.nodes), edges=dict(net.edges), node_attr=stances)


def transpose(net: CommNetwork) -> CommNetwork:
    edges = {(b, a): w for (a, b), w in net.edges.items()}
    return replace(net, nodes=set(net.nodes), edges=edges, node_attr=dict(net.node_attr), self_loop_count=0)


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
    write_text(path, "\n".join(lines) + "\n")


_GEXF_NS = "http://www.gexf.net/1.2draft"
# ElementTree's escapes for an attribute value.
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)


def _gexf_block(tag: str, depth: int, children: list[str]) -> list[str]:
    pad = "  " * depth
    return [f"{pad}<{tag}>", *children, f"{pad}</{tag}>"] if children else [f"{pad}<{tag} />"]


def _export_gexf(net: CommNetwork, path: Path) -> None:
    """GEXF 1.2 in the layout of ElementTree's ``indent`` and ``tostring``,
    written as lines: building and serializing the tree cost several times more."""
    nodes = []
    for node in sorted(net.nodes):
        name = node.translate(_ATTR_ESCAPES)
        stance = net.node_attr.get(node, Stance.UNCLASSIFIED.value).translate(_ATTR_ESCAPES)
        nodes += (
            f'      <node id="{name}" label="{name}">',
            "        <attvalues>",
            f'          <attvalue for="0" value="{stance}" />',
            "        </attvalues>",
            "      </node>",
        )
    edges = [
        f'      <edge id="{i}" source="{src.translate(_ATTR_ESCAPES)}" target="{dst.translate(_ATTR_ESCAPES)}" weight="{w}" />'
        for i, (src, dst, w) in enumerate(net.sorted_edges())
    ]
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<gexf xmlns="{_GEXF_NS}" version="1.2">',
        '  <graph defaultedgetype="directed">',
        '    <attributes class="node">',
        '      <attribute id="0" title="stance" type="string" />',
        "    </attributes>",
        *_gexf_block("nodes", 2, nodes),
        *_gexf_block("edges", 2, edges),
        "  </graph>",
        "</gexf>",
    ]
    write_text(path, "\n".join(lines) + "\n")


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
    )
