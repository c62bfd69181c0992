from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stancelab import netmetrics
from stancelab.commnet import CommNetwork, NetworkKind, build_network, reciprocal_subnetwork
from stancelab.netmetrics import (
    EchoResult,
    density,
    echo_chamberness,
    eigenvector_centrality,
    influence_base,
    reciprocity,
    super_friends,
    super_spreaders,
    write_influencer_csv,
)
from util import (
    make_corpus,
    make_tweet,
    oracle_acyclic_centrality,
    oracle_density,
    oracle_eigencentrality,
    oracle_power_iteration,
    oracle_reciprocity,
    oracle_top_k,
    random_network,
    random_spectral_network,
)


def net_from_edges(edges, kind=NetworkKind.ALL_COMMUNICATION, extra_nodes=()):
    net = CommNetwork(kind=kind)
    for a, b, *w in edges:
        net.add_edge(a, b, w[0] if w else 1)
    net.nodes.update(extra_nodes)
    return net


WORKED = [("a", "b"), ("b", "a"), ("a", "c")]


class TestReciprocity:
    def test_symmetric_graph(self):
        net = net_from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
        assert reciprocity(net) == 1.0

    def test_single_edge(self):
        assert reciprocity(net_from_edges([("a", "b")])) == 0.0

    def test_worked_example(self):
        assert reciprocity(net_from_edges(WORKED)) == 2 / 3

    def test_edgeless(self):
        assert reciprocity(CommNetwork(kind=NetworkKind.REPLY, nodes={"a"})) == 0.0


class TestDensity:
    def test_complete_directed_triangle(self):
        net = net_from_edges([(a, b) for a in "abc" for b in "abc" if a != b])
        assert density(net) == 1.0

    def test_worked_example(self):
        assert density(net_from_edges(WORKED)) == 0.5

    def test_single_node(self):
        assert density(CommNetwork(kind=NetworkKind.REPLY, nodes={"a"})) == 0.0

    def test_weighted_variant(self):
        net = net_from_edges([("a", "b", 4), ("b", "a", 2)])
        assert density(net) == 1.0


class TestEchoChamberness:
    def test_complete_symmetric(self):
        net = net_from_edges([(a, b) for a in "abcd" for b in "abcd" if a != b])
        result = echo_chamberness(net)
        assert result.reciprocity == result.density == result.echo_chamberness == 1.0

    def test_zero_reciprocity_gives_zero(self):
        result = echo_chamberness(net_from_edges([("a", "b"), ("b", "c")]))
        assert result.echo_chamberness == 0.0

    def test_worked_example(self):
        result = echo_chamberness(net_from_edges(WORKED))
        assert result == EchoResult(2 / 3, 0.5, ((2 / 3) * 0.5) ** (1 / 3), 3, 3)
        assert round(result.echo_chamberness, 4) == 0.6934

    def test_matches_brute_force_oracles(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            net = random_network(rng, max_nodes=20)
            result = echo_chamberness(net)
            r, d = oracle_reciprocity(net), oracle_density(net)
            assert result.reciprocity == r
            assert result.density == d
            assert abs(result.echo_chamberness - (r * d) ** (1 / 3)) < 1e-12

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            net = random_network(rng, max_nodes=12)
            mapping = {n: f"renamed_{i}" for i, n in enumerate(sorted(net.nodes, key=hash))}
            renamed = CommNetwork(
                kind=net.kind,
                nodes={mapping[n] for n in net.nodes},
                edges={(mapping[a], mapping[b]): w for (a, b), w in net.edges.items()},
            )
            assert echo_chamberness(renamed) == echo_chamberness(net)

    def test_adding_reverse_edge_never_lowers_reciprocity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            net = random_network(rng, max_nodes=10)
            one_way = [(a, b) for (a, b) in net.edges if (b, a) not in net.edges]
            if not one_way:
                continue
            before = reciprocity(net)
            a, b = one_way[int(rng.integers(0, len(one_way)))]
            net.add_edge(b, a, 1)
            assert reciprocity(net) >= before


class TestInfluenceBase:
    def test_received_counts_sum_over_kinds(self):
        corpus = make_corpus(
            make_tweet("t1", "a", retweeted="b"),
            make_tweet("t2", "c", mentions=["b"]),
        )
        base = influence_base(
            build_network(corpus, NetworkKind.MENTION),
            build_network(corpus, NetworkKind.RETWEET),
        )
        received = {n: 0 for n in base.nodes}
        for (x, _), w in base.edges.items():
            received[x] += w
        assert received["b"] == 2

    def test_empty_networks(self):
        corpus = make_corpus(make_tweet("t1", "a"))
        base = influence_base(
            build_network(corpus, NetworkKind.MENTION),
            build_network(corpus, NetworkKind.RETWEET),
        )
        assert base.edges == {} and base.nodes == set()

    def test_mutual_retweet_symmetry(self):
        corpus = make_corpus(
            make_tweet("t1", "a", retweeted="b"),
            make_tweet("t2", "b", retweeted="a"),
        )
        base = influence_base(
            build_network(corpus, NetworkKind.MENTION),
            build_network(corpus, NetworkKind.RETWEET),
        )
        assert base.edges == {("b", "a"): 1, ("a", "b"): 1}

    def test_kind_validation(self):
        corpus = make_corpus(make_tweet("t1", "a"))
        retweet = build_network(corpus, NetworkKind.RETWEET)
        with pytest.raises(ValueError, match="mention"):
            influence_base(retweet, retweet)


class TestEigenvectorCentrality:
    def test_empty(self):
        assert eigenvector_centrality(CommNetwork(kind=NetworkKind.INFLUENCE_BASE)) == {}

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = random_spectral_network(rng, max_nodes=12)
            scores = eigenvector_centrality(net)
            nodes, expected = oracle_eigencentrality(net)
            got = np.array([scores[n] for n in nodes])
            assert np.linalg.norm(got - expected) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        net = random_spectral_network(rng, max_nodes=10)
        assert eigenvector_centrality(net) == eigenvector_centrality(net)

    def test_warns_only_when_max_iter_ends_the_iteration(self, caplog):
        net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
        for src, dst, w in (("a", "b", 3), ("b", "c", 1), ("c", "a", 2), ("b", "a", 1)):
            net.add_edge(src, dst, w)
        with caplog.at_level("WARNING", logger="stancelab.netmetrics"):
            cut = eigenvector_centrality(net, max_iter=1)
        [record] = caplog.records
        assert record.name == "stancelab.netmetrics" and record.levelname == "WARNING"
        step = max(abs(v - 1 / np.sqrt(3)) for v in cut.values())
        assert "3 nodes" in record.getMessage() and f"{step:.3g}" in record.getMessage()
        caplog.clear()
        with caplog.at_level("WARNING", logger="stancelab.netmetrics"):
            eigenvector_centrality(net)
        assert caplog.records == []


    @given(
        n=st.integers(2, 9),
        edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 9)), min_size=1, max_size=24),
    )
    def test_acyclic_graphs_give_the_normalized_longest_power(self, n, edges):
        """An edge from the lower to the higher node index keeps the graph
        acyclic; the result is A^L * 1 normalized, with no warning."""
        net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
        net.nodes.update(f"n{i}" for i in range(n))
        for a, b, w in edges:
            a, b = a % n, b % n
            if a != b:
                net.edges[(f"n{min(a, b)}", f"n{max(a, b)}")] = w
        assume(net.edges)
        with patch.object(netmetrics.logger, "warning") as warning:
            scores = eigenvector_centrality(net)
        nodes, expected = oracle_acyclic_centrality(net)
        assert np.allclose([scores[node] for node in nodes], expected, rtol=1e-12, atol=1e-15)
        warning.assert_not_called()

    def test_star_center_takes_all_the_weight(self, caplog):
        with caplog.at_level("WARNING", logger="stancelab.netmetrics"):
            scores = eigenvector_centrality(star_base())
        assert scores == {"X": 1.0, **{f"fan{i}": 0.0 for i in range(5)}}
        assert caplog.records == []


class TestEigenvectorRun:
    """The private helper reports how the iteration ended."""

    def test_acyclic_base_takes_its_longest_path_in_steps(self):
        run = netmetrics._eigenvector_run(star_base(), 1e-10, 1000)
        assert run.scores == eigenvector_centrality(star_base())
        assert (run.steps, run.acyclic, run.converged) == (1, True, True)
        assert run.last_step == pytest.approx(1 - 1 / np.sqrt(6))  # X goes from 1/sqrt(6) to 1

    def test_cyclic_base_converges_below_tol(self):
        net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
        for src, dst, w in (("a", "b", 3), ("b", "c", 1), ("c", "a", 2), ("b", "a", 1)):
            net.add_edge(src, dst, w)
        run = netmetrics._eigenvector_run(net, 1e-10, 1000)
        assert run.scores == eigenvector_centrality(net)
        assert not run.acyclic and run.converged and run.last_step < 1e-10 and 1 < run.steps < 1000
        cut = netmetrics._eigenvector_run(net, 1e-10, 1)
        assert (cut.steps, cut.converged) == (1, False)
        assert cut.last_step == max(abs(v - 1 / np.sqrt(3)) for v in cut.scores.values())

    def test_edgeless_and_empty_bases(self):
        net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE, nodes={"a", "b"})
        run = netmetrics._eigenvector_run(net, 1e-10, 1000)
        assert (run.steps, run.acyclic, run.converged) == (1, True, True) and run.last_step < 1e-10
        empty = netmetrics._eigenvector_run(CommNetwork(kind=NetworkKind.INFLUENCE_BASE), 1e-10, 1000)
        assert (empty.scores, empty.steps, empty.acyclic, empty.converged) == ({}, 0, True, True)


    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["cyclic", "edgeless", "empty"]),
        max_iter=st.sampled_from([1, 7, 1000]),
    )
    def test_iterative_branch_equals_the_add_at_reference(self, seed, shape, max_iter):
        """Bit for bit: one ``bincount`` per step makes the same additions,
        in the same order, as ``np.add.at`` onto a copy of v."""
        net = random_network(np.random.default_rng(seed), max_nodes=12)
        if shape == "cyclic":
            a, b = sorted(net.nodes)[:2]
            net.edges.setdefault((a, b), 1)
            net.edges.setdefault((b, a), 2)
        elif shape == "edgeless":
            net.edges.clear()
        else:
            net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
        run = netmetrics._eigenvector_run(net, 1e-10, max_iter)
        assert run.acyclic is (shape != "cyclic")
        assert (run.scores, run.steps, run.last_step) == oracle_power_iteration(net, 1e-10, max_iter)


def star_base(n_fans=5):
    """n accounts each retweet X once; received orientation."""
    corpus = make_corpus(
        *(make_tweet(f"t{i}", f"fan{i}", retweeted="X") for i in range(n_fans))
    )
    return influence_base(
        build_network(corpus, NetworkKind.MENTION),
        build_network(corpus, NetworkKind.RETWEET),
    )


class TestSuperSpreaders:
    def test_star_center_tops_every_measure(self):
        report = super_spreaders(star_base(), k=3)
        assert report.ranks["X"] == (1, 1, 1)
        assert "X" in report.super_accounts

    def test_empty_network(self):
        report = super_spreaders(CommNetwork(kind=NetworkKind.INFLUENCE_BASE), k=3)
        assert report.super_accounts == frozenset()
        assert report.fraction == 0.0

    def test_two_receivers_with_k3_everyone_included(self):
        corpus = make_corpus(
            make_tweet("t1", "a1", retweeted="b1"),
            make_tweet("t2", "a2", retweeted="b2"),
        )
        base = influence_base(
            build_network(corpus, NetworkKind.MENTION),
            build_network(corpus, NetworkKind.RETWEET),
        )
        report = super_spreaders(base, k=3)
        assert {"b1", "b2"} <= report.super_accounts

    def test_ties_at_kth_rank_included(self):
        net = CommNetwork(kind=NetworkKind.INFLUENCE_BASE)
        # received counts: x=3, y=2, z=2, w=2 -> threshold at rank 3 is 2
        for target, count in (("x", 3), ("y", 2), ("z", 2), ("w", 2)):
            for i in range(count):
                net.add_edge(target, f"src_{target}{i}", 1)
        report = super_spreaders(net, k=3)
        top_by_received = {u for u in ("x", "y", "z", "w")}
        assert top_by_received <= report.super_accounts

    def test_scaling_weights_preserves_super_set(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            net = random_spectral_network(rng, max_nodes=10)
            scaled = CommNetwork(
                kind=net.kind,
                nodes=set(net.nodes),
                edges={pair: w * 2 for pair, w in net.edges.items()},
            )
            assert super_spreaders(net, 3).super_accounts == super_spreaders(scaled, 3).super_accounts

    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_two_counts_are_ints(self, seed):
        net = random_network(np.random.default_rng(seed), max_nodes=10)
        for user, (received, _, sources) in super_spreaders(net, 3).measures.items():
            out = [w for (x, _), w in net.edges.items() if x == user]
            assert type(received) is int and received == sum(out)
            assert type(sources) is int and sources == len(out)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            super_spreaders(star_base(), k=0)

    @given(
        edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 2)), max_size=20),
        isolated=st.integers(0, 2),
        data=st.data(),
    )
    def test_super_set_is_the_union_of_tied_top_k(self, edges, isolated, data):
        net = net_from_edges(
            [(f"n{a}", f"n{b}", w) for a, b, w in edges if a != b],
            kind=NetworkKind.INFLUENCE_BASE,
            extra_nodes=[f"iso{i}" for i in range(isolated)],
        )
        k = data.draw(st.integers(1, len(net.nodes) + 2))
        report = super_spreaders(net, k)
        expected = set()
        for i in range(3):
            expected |= oracle_top_k({u: m[i] for u, m in report.measures.items()}, k)
        assert report.super_accounts == expected


class TestSuperFriends:
    def reciprocal_pair(self):
        net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
        net.add_edge("a", "b", 1)
        net.add_edge("b", "a", 1)
        net.add_edge("a", "c", 1)
        return reciprocal_subnetwork(net)

    def test_pair_super_set(self):
        report = super_friends(self.reciprocal_pair(), k=3)
        measured = {u for u, m in report.measures.items() if m[0] > 0}
        assert measured == {"a", "b"}

    def test_symmetric_star_center_tops(self):
        net = CommNetwork(kind=NetworkKind.RECIPROCAL)
        for i in range(4):
            net.add_edge("hub", f"s{i}", 1)
            net.add_edge(f"s{i}", "hub", 1)
        report = super_friends(net, k=1)
        assert report.ranks["hub"] == (1, 1, 1)

    def test_rejects_asymmetric_input(self):
        net = CommNetwork(kind=NetworkKind.RECIPROCAL)
        net.add_edge("a", "b", 1)
        with pytest.raises(ValueError, match="symmetric"):
            super_friends(net, k=3)

    def test_empty(self):
        report = super_friends(CommNetwork(kind=NetworkKind.RECIPROCAL), k=3)
        assert report.super_accounts == frozenset()


def test_influencer_csv_schema(tmp_path):
    report = super_spreaders(star_base(), k=3)
    path = tmp_path / "influencers.csv"
    write_influencer_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user_id,measure1,measure2,measure3,is_super"
    assert len(lines) == 1 + len(report.measures)
    x_row = next(line for line in lines if line.startswith("X,"))
    assert x_row.split(",")[1] == "5"
    assert x_row.endswith("true")
