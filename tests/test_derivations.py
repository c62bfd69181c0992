"""The rules every network derivation keeps: it copies, it keeps the input's
kind (the reciprocal network takes its own kind), and it keeps or resets the
self-loop count as documented in stancelab.commnet."""

import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab.commnet import NetworkKind, attach_stances, group_subgraph, reciprocal_subnetwork, transpose
from stancelab.stance import Stance, StanceRow, StanceTable
from util import random_network

# name -> (derivation, kind of the result or None for the input's, whether it keeps the self-loop count)
DERIVATIONS = {
    "reciprocal_subnetwork": (lambda net, table: reciprocal_subnetwork(net), NetworkKind.RECIPROCAL, False),
    "group_subgraph": (lambda net, table: group_subgraph(net, table, {Stance.BELIEVER}), None, False),
    "attach_stances": (attach_stances, None, True),
    "transpose": (lambda net, table: transpose(net), None, False),
}


@pytest.mark.parametrize("name", sorted(DERIVATIONS))
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(NetworkKind), self_loops=st.integers(0, 5))
def test_derivation_copies_and_keeps_its_fields(name, seed, kind, self_loops):
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

    out = derive(net, table)

    assert out.kind is (result_kind or kind)
    assert out.self_loop_count == (self_loops if keeps_self_loops else 0)
    out.nodes.add("zz_new")
    out.edges[("zz_new", "zz_other")] = 1
    out.node_attr["zz_new"] = Stance.BELIEVER.value
    for container in ("nodes", "edges", "node_attr"):
        assert getattr(net, container) == getattr(before, container), container
