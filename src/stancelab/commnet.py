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

Every edge's two ends are nodes: ``add_edge``, the builders and the
derivations keep it so, and ``in_order``, the one order the writers, the
exporters and the eigenvector centrality read a network in, relies on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .corpus import Corpus
from .fileio import GraphOrder, graph_order, json_block, json_edges, read_json, write_csv, write_text
from .stance import Stance, StanceTable

__all__ = [
    "NetworkKind",
    "CommNetwork",
    "build_network",
    "weighted_union",
    "all_communication",
    "reciprocal_subnetwork",
    "StanceSplit",
    "split_by_stance",
    "group_subgraph",
    "attach_stances",
    "transpose",
    "EXPORTERS",
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


# The record field holding a retweet or reply network's one target per tweet.
_TARGET_OF = {
    NetworkKind.RETWEET: attrgetter("retweeted_user_id"),
    NetworkKind.REPLY: attrgetter("in_reply_to_user_id"),
}


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

    def in_order(self) -> GraphOrder:
        """``fileio.graph_order`` of the network: its names sorted, its edges by ``(src, dst)``."""
        return graph_order(self.nodes, self.edges.items())


def build_network(
    corpus: Corpus,
    kind: NetworkKind,
    *,
    include_retweet_mentions: bool = True,
) -> CommNetwork:
    """Per-kind network: edge (a, b) counts a's retweets/mentions/replies of b.

    Each tweet's author is the source and the kind's record field the
    targets: ``retweeted_user_id``, ``in_reply_to_user_id``, or each entry of
    ``mentioned_user_ids``.  A target equal to the author counts in
    ``self_loop_count`` instead of as an edge.
    ``include_retweet_mentions=False`` drops mention entries carried inside
    retweets.
    """
    if kind is NetworkKind.MENTION:
        pairs = [
            (t.user_id, target)
            for t in corpus.tweets
            if include_retweet_mentions or t.retweeted_user_id is None
            for target in t.mentioned_user_ids
        ]
    elif kind in _TARGET_OF:
        target_of = _TARGET_OF[kind]
        pairs = [(t.user_id, target) for t in corpus.tweets if (target := target_of(t)) is not None]
    else:
        raise ValueError(f"cannot build a {kind.value} network directly")
    counts = Counter(pairs)
    for pair in [pair for pair in counts if pair[0] == pair[1]]:
        del counts[pair]
    net = CommNetwork(kind=kind, edges=dict(counts))
    net.nodes.update(chain.from_iterable(counts))
    net.self_loop_count = len(pairs) - sum(counts.values())  # the pairs not counted as edges
    return net


def weighted_union(kind: NetworkKind, parts: dict[NetworkKind, CommNetwork]) -> CommNetwork:
    """Union of the parts' nodes with their edge weights and self-loop counts
    summed; each part must have the kind it is keyed by."""
    union = CommNetwork(kind=kind)
    for expected, net in parts.items():
        if net.kind is not expected:
            raise ValueError(f"expected a {expected.value} network, got {net.kind.value}")
        union.nodes.update(net.nodes)
        if union.edges:
            edges = union.edges
            for edge, w in net.edges.items():
                edges[edge] = edges.get(edge, 0) + w
        else:
            union.edges = dict(net.edges)
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


@dataclass(frozen=True)
class StanceSplit:
    """One network's nodes by the node's stance, and its edges by the
    stances of their two ends: ``edges[s][t]`` holds the edges from a node
    of stance s to one of stance t."""

    nodes: dict[Stance, set[str]]
    edges: dict[Stance, dict[Stance, dict[tuple[str, str], int]]]


def split_by_stance(net: CommNetwork, table: StanceTable) -> StanceSplit:
    """``net`` split once by stance, for ``group_subgraph`` to assemble any
    number of subgraphs from.  Nodes missing from the table (e.g. accounts
    that never authored a tweet) count as unclassified."""
    stance = table.stances_of(net.nodes)
    nodes: dict[Stance, set[str]] = {s: set() for s in Stance}
    for node, s in stance.items():
        nodes[s].add(node)
    edges: dict[Stance, dict[Stance, dict[tuple[str, str], int]]] = {s: {t: {} for t in Stance} for s in Stance}
    out_parts = {node: edges[s] for node, s in stance.items()}  # a node's out-edges, by the target's stance
    for edge, w in net.edges.items():
        a, b = edge
        out_parts[a][stance[b]][edge] = w
    return StanceSplit(nodes, edges)


def group_subgraph(
    net: CommNetwork, table: StanceTable, groups: Iterable[Stance], *, split: StanceSplit | None = None
) -> CommNetwork:
    """Induced subgraph on nodes whose stance is in ``groups``, with their
    ``node_attr`` entries.

    Nodes missing from the table (e.g. accounts that never authored a tweet)
    count as unclassified.  ``split`` is ``split_by_stance(net, table)``;
    a caller taking several subgraphs of one network passes it, so the
    network is scanned once.
    """
    wanted = set(groups)
    wanted = [s for s in Stance if s in wanted]  # in a fixed order, so the dicts are built alike every run
    if split is None:
        split = split_by_stance(net, table)
    keep: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    for s in wanted:
        keep |= split.nodes[s]
        for t in wanted:
            edges |= split.edges[s][t]
    node_attr = {node: value for node, value in net.node_attr.items() if node in keep}  # in net's order, not the set's
    return replace(net, nodes=keep, edges=edges, node_attr=node_attr, self_loop_count=0)


def attach_stances(net: CommNetwork, table: StanceTable) -> CommNetwork:
    """Copy of the network with a stance attribute on every node."""
    value = {s: s.value for s in Stance}
    stances = {n: value[s] for n, s in table.stances_of(net.nodes).items()}
    return replace(net, nodes=set(net.nodes), edges=dict(net.edges), node_attr=stances)


def transpose(net: CommNetwork) -> CommNetwork:
    edges = {(b, a): w for (a, b), w in net.edges.items()}
    return replace(net, nodes=set(net.nodes), edges=edges, node_attr=dict(net.node_attr), self_loop_count=0)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(net: CommNetwork, path: Path, order: GraphOrder) -> None:
    names, edges = order
    quoted = list(map(_dot_quote, names))
    lines = [f"digraph {net.kind.value} {{"]
    for node, name in zip(names, quoted):
        stance = net.node_attr.get(node)
        attr = f" [stance={_dot_quote(stance)}]" if stance else ""
        lines.append(f"  {name}{attr};")
    lines += [f"  {quoted[i]} -> {quoted[j]} [weight={w}];" for i, j, w in edges]
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


def _export_gexf(net: CommNetwork, path: Path, order: GraphOrder) -> None:
    """GEXF 1.2 in the layout of ElementTree's ``indent`` and ``tostring``,
    written as lines: building and serializing the tree cost several times more."""
    names, edges = order
    escaped = [node.translate(_ATTR_ESCAPES) for node in names]
    nodes = []
    for node, name in zip(names, escaped):
        stance = net.node_attr.get(node, Stance.UNCLASSIFIED.value).translate(_ATTR_ESCAPES)
        nodes += (
            f'      <node id="{name}" label="{name}">',
            "        <attvalues>",
            f'          <attvalue for="0" value="{stance}" />',
            "        </attvalues>",
            "      </node>",
        )
    edge_lines = [
        f'      <edge id="{k}" source="{escaped[i]}" target="{escaped[j]}" weight="{w}" />'
        for k, (i, j, w) in enumerate(edges)
    ]
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<gexf xmlns="{_GEXF_NS}" version="1.2">',
        '  <graph defaultedgetype="directed">',
        '    <attributes class="node">',
        '      <attribute id="0" title="stance" type="string" />',
        "    </attributes>",
        *_gexf_block("nodes", 2, nodes),
        *_gexf_block("edges", 2, edge_lines),
        "  </graph>",
        "</gexf>",
    ]
    write_text(path, "\n".join(lines) + "\n")


def _export_edge_csv(net: CommNetwork, path: Path, order: GraphOrder) -> None:
    names, edges = order
    write_csv(path, ("src", "dst", "weight"), [(names[i], names[j], w) for i, j, w in edges])


# The network export formats, by the name a config gives them.
EXPORTERS = {"dot": _export_dot, "gexf": _export_gexf, "csv": _export_edge_csv}


def export_graph(net: CommNetwork, fmt: str, path: str | Path, order: GraphOrder | None = None) -> None:
    """Write the network as DOT, GEXF 1.2, or edge CSV (src,dst,weight).

    Nodes are written by name and edges in ``(src, dst)`` order.  ``order``
    is ``net.in_order()``; a caller writing one network several times
    passes it, so the network is put in order once.
    """
    try:
        exporter = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}; use one of {', '.join(EXPORTERS)}") from None
    exporter(net, Path(path), net.in_order() if order is None else order)


def write_network_json(net: CommNetwork, path: str | Path, order: GraphOrder | None = None) -> None:
    """The pipeline's cached network, full fidelity: it keeps the isolated
    nodes, stance attributes and diagnostics that the edge CSV drops.  The
    bytes are ``write_json``'s for ``{"edges": [[a, b, w], ...], "kind",
    "node_attr", "nodes", "self_loop_count"}``, rendered item by item.
    ``order`` is ``net.in_order()``, passed by a caller that has it, as
    for ``export_graph``."""
    q = encode_basestring_ascii
    names, edges = net.in_order() if order is None else order
    quoted = list(map(q, names))  # each name is quoted once
    attr = net.node_attr  # attach_stances keys it by every node
    quoted_attr = zip(names, quoted) if attr.keys() == net.nodes else [(n, q(n)) for n in sorted(attr)]
    quoted_value = {v: q(v) for v in set(attr.values())}
    members = (
        '"edges": ' + json_edges(quoted, edges),
        '"kind": ' + q(net.kind.value),
        '"node_attr": ' + json_block([f"{name}: {quoted_value[attr[n]]}" for n, name in quoted_attr], 1, "{}"),
        '"nodes": ' + json_block(quoted, 1),
        '"self_loop_count": ' + int.__repr__(net.self_loop_count),
    )
    write_text(path, json_block(members, 0, "{}") + "\n")


def read_network_json(path: str | Path) -> CommNetwork:
    data = read_json(path)
    return CommNetwork(
        kind=NetworkKind(data["kind"]),
        nodes=set(data["nodes"]),
        edges={(a, b): int(w) for a, b, w in data["edges"]},
        node_attr=dict(data.get("node_attr", {})),
        self_loop_count=int(data.get("self_loop_count", 0)),
    )
