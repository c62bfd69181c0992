"""The rules every network derivation and union keeps: it copies, sharing no
set or dict with an input, it keeps the input's kind (the reciprocal network
takes its own kind), and it keeps or resets the self-loop count as documented
in stancelab.commnet."""

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab.commnet import (
    CommNetwork,
    NetworkKind,
    attach_stances,
    group_subgraph,
    reciprocal_subnetwork,
    transpose,
    weighted_union,
    write_network_json,
)
from stancelab.stance import Stance, StanceRow, StanceTable
from util import random_network

# name -> (derivation, kind of the result or None for the input's, whether it keeps the self-loop count)
DERIVATIONS = {
    "reciprocal_subnetwork": (lambda net, table: reciprocal_subnetwork(net), NetworkKind.RECIPROCAL, False),
    "group_subgraph": (lambda net, table: group_subgraph(net, table, {Stance.BELIEVER}), None, False),
    "attach_stances": (attach_stances, None, True),
    "transpose": (lambda net, table: transpose(net), None, False),
}
_CONTAINERS = ("nodes", "edges", "node_attr")


def network_bytes(net: CommNetwork, path) -> bytes:
    write_network_json(net, path)
    return path.read_bytes()


def mutate(net: CommNetwork) -> None:
    """Add a node, an edge and an attribute, and reweight an edge the network had."""
    for edge in list(net.edges)[:1]:
        net.edges[edge] += 7
    net.nodes.add("zz_new")
    net.edges[("zz_new", "zz_other")] = 1
    net.node_attr["zz_new"] = Stance.BELIEVER.value


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(NetworkKind), self_loops=st.integers(0, 5))
def test_derivation_copies_and_keeps_its_fields(tmp_path_factory, name, seed, kind, self_loops):
    derive, result_kind, keeps_self_loops = DERIVATIONS[name]
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    net.kind, net.self_loop_count = kind, self_loops
    stances = list(Stance)
    net.node_attr = {n: stances[int(rng.integers(0, 3))].value for n in sorted(net.nodes) if rng.random() < 0.7}
    table = StanceTable(
        rows={n: StanceRow(n, None, Stance(v), 0) for n, v in net.node_attr.items() if rng.random() < 0.8}
    )
    before = copy.deepcopy(net)
    path = tmp_path_factory.mktemp("net") / "net.json"
    written = network_bytes(net, path)

    out = derive(net, table)

    assert out.kind is (result_kind or kind)
    assert out.self_loop_count == (self_loops if keeps_self_loops else 0)
    for container in _CONTAINERS:
        assert getattr(out, container) is not getattr(net, container), container
    mutate(out)
    for container in _CONTAINERS:
        assert getattr(net, container) == getattr(before, container), container
    assert network_bytes(net, path) == written


_KINDS = (NetworkKind.RETWEET, NetworkKind.MENTION, NetworkKind.REPLY)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_parts=st.integers(1, 3),
    empty_first=st.booleans(),
    self_loops=st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
def test_weighted_union_is_the_counter_sum_and_shares_nothing(tmp_path_factory, seed, n_parts, empty_first, self_loops):
    """One to three overlapping parts; a first part without edges leaves the
    second to start the union's edges."""
    rng = np.random.default_rng(seed)
    parts = {}
    for kind, loops in zip(_KINDS[:n_parts], self_loops):
        part = random_network(rng, max_nodes=8)
        part.kind, part.self_loop_count = kind, loops
        parts[kind] = part
    if empty_first:
        parts[NetworkKind.RETWEET].edges.clear()
    folder = tmp_path_factory.mktemp("parts")
    written = {kind: network_bytes(part, folder / f"{kind.value}.json") for kind, part in parts.items()}

    union = weighted_union(NetworkKind.ALL_COMMUNICATION, parts)

    assert union.kind is NetworkKind.ALL_COMMUNICATION
    assert union.nodes == set().union(*(part.nodes for part in parts.values()))
    assert union.edges == sum((Counter(part.edges) for part in parts.values()), Counter())
    assert union.node_attr == {}
    assert union.self_loop_count == sum(self_loops[:n_parts])
    for part in parts.values():
        for container in _CONTAINERS:
            assert getattr(union, container) is not getattr(part, container), container
    mutate(union)
    for kind, part in parts.items():
        assert network_bytes(part, folder / f"{kind.value}.json") == written[kind], kind
