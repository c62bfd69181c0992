import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stancelab.hashtag_graph import (
    HashtagGraph,
    PropagationConfig,
    SeedSpec,
    build_cooccurrence_graph,
    propagate_labels,
    read_graph_json,
    read_labels_csv,
    seed_labels,
    write_graph_json,
    write_labels_csv,
)
from util import make_corpus, make_tweet, oracle_propagate_labels, random_connected_graph, two_clique_graph


def worked_example_graph():
    g = HashtagGraph()
    g.add_edge("h3", "h1", 2)
    g.add_edge("h3", "h2", 1)
    seeded, missing = seed_labels(g, SeedSpec.from_pairs([("h1", 1), ("h2", -1)]))
    assert missing == []
    return seeded


class TestBuildCooccurrence:
    def test_single_tweet_clique(self):
        corpus = make_corpus(make_tweet("t1", "u1", hashtags=["a", "b", "c"]))
        g = build_cooccurrence_graph(corpus)
        assert g.weight("a", "b") == g.weight("b", "c") == g.weight("a", "c") == 1
        assert g.n_edges == 3

    def test_repetition_adds_weight(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", hashtags=["a", "b"]),
            make_tweet("t2", "u2", hashtags=["a", "b"]),
        )
        g = build_cooccurrence_graph(corpus)
        assert g.weight("a", "b") == 2

    def test_within_tweet_duplicates_count_once(self):
        corpus = make_corpus(make_tweet("t1", "u1", hashtags=["a", "a", "b"]))
        g = build_cooccurrence_graph(corpus)
        assert g.weight("a", "b") == 1
        assert g.weight("a", "a") == 0
        assert g.n_edges == 1

    def test_min_weight_drops_edges_keeps_nodes(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", hashtags=["a", "b"]),
            make_tweet("t2", "u1", hashtags=["a", "b"]),
            make_tweet("t3", "u1", hashtags=["a", "c"]),
        )
        g = build_cooccurrence_graph(corpus, min_weight=2)
        assert g.weight("a", "b") == 2
        assert g.weight("a", "c") == 0
        assert g.nodes == {"a", "b", "c"}

    def test_isolated_hashtag_is_a_node(self):
        corpus = make_corpus(make_tweet("t1", "u1", hashtags=["solo"]))
        g = build_cooccurrence_graph(corpus)
        assert g.nodes == {"solo"}
        assert g.n_edges == 0

    def test_min_weight_validation(self):
        with pytest.raises(ValueError):
            build_cooccurrence_graph(make_corpus(), min_weight=0)


class TestGraphStructure:
    def test_symmetry(self):
        g = HashtagGraph()
        g.add_edge("a", "b", 3)
        assert g.weight("a", "b") == g.weight("b", "a") == 3

    def test_rejects_self_loop(self):
        g = HashtagGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a", 1)

    def test_rejects_nonpositive_weight(self):
        g = HashtagGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", 0)

    def test_label_bounds(self):
        g = HashtagGraph()
        g.add_node("a")
        with pytest.raises(ValueError):
            g.set_label("a", 1.5)

    def test_json_roundtrip(self, tmp_path):
        g = worked_example_graph()
        write_graph_json(g, tmp_path / "graph.json")
        assert read_graph_json(tmp_path / "graph.json") == g


class TestSeeds:
    def test_seed_present_node(self):
        g = HashtagGraph()
        g.add_edge("climatehoax", "other", 1)
        seeded, missing = seed_labels(g, SeedSpec.from_pairs([("climatehoax", -1)]))
        assert seeded.labels == {"climatehoax": -1.0}
        assert missing == []

    def test_seed_missing_node_reported(self):
        g = HashtagGraph()
        g.add_node("present")
        seeded, missing = seed_labels(g, SeedSpec.from_pairs([("missing", 1)]))
        assert seeded.labels == {}
        assert seeded.adj == g.adj
        assert missing == ["missing"]

    def test_contradictory_seed_rejected(self):
        with pytest.raises(ValueError, match="contradictory"):
            SeedSpec.from_pairs([("x", 1), ("x", -1)])

    def test_label_values_restricted(self):
        with pytest.raises(ValueError):
            SeedSpec.from_pairs([("x", 2)])

    def test_from_csv(self, tmp_path):
        path = tmp_path / "seeds.csv"
        path.write_text("hashtag,label\n#Hoax,-1\naction,1\n", encoding="utf-8")
        spec = SeedSpec.from_csv(path)
        assert spec.entries == (("hoax", -1), ("action", 1))

    def test_from_csv_bad_header(self, tmp_path):
        path = tmp_path / "seeds.csv"
        path.write_text("tag,value\nx,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            SeedSpec.from_csv(path)

    def test_from_csv_bad_label(self, tmp_path):
        path = tmp_path / "seeds.csv"
        path.write_text("hashtag,label\nx,maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            SeedSpec.from_csv(path)


class TestPropagation:
    def test_worked_example(self):
        labels = propagate_labels(worked_example_graph())
        assert labels["h1"] == 1.0
        assert labels["h2"] == -1.0
        assert labels["h3"] == (1 * 2 + (-1) * 1) / 3

    def test_all_seeded_is_fixpoint(self):
        g = HashtagGraph()
        g.add_edge("a", "b", 1)
        g.set_label("a", 1.0)
        g.set_label("b", -1.0)
        assert propagate_labels(g) == {"a": 1.0, "b": -1.0}

    def test_chain_slack_schedule(self):
        # pass 0 has no slack and labels nothing; pass 1 labels h3 then h4
        g = HashtagGraph()
        g.add_edge("h1", "h3", 1)
        g.add_edge("h3", "h4", 1)
        seeded, _ = seed_labels(g, SeedSpec.from_pairs([("h1", 1)]))
        first = propagate_labels(seeded, PropagationConfig(gamma=1, max_passes=1))
        assert first == {"h1": 1.0}
        second = propagate_labels(seeded, PropagationConfig(gamma=1, max_passes=2))
        assert second == {"h1": 1.0, "h3": 1.0, "h4": 1.0}

    def test_large_gamma_keeps_quorum_strict(self):
        # without slack the chain never reaches h3 (2 neighbors, 1 labeled)
        g = HashtagGraph()
        g.add_edge("h1", "h3", 1)
        g.add_edge("h3", "h4", 1)
        seeded, _ = seed_labels(g, SeedSpec.from_pairs([("h1", 1)]))
        assert propagate_labels(seeded, PropagationConfig(gamma=100)) == {"h1": 1.0}

    def test_zero_seeds_rejected(self):
        g = HashtagGraph()
        g.add_edge("a", "b", 1)
        with pytest.raises(ValueError, match="seed"):
            propagate_labels(g)

    def test_isolated_node_stays_unlabeled(self):
        g = HashtagGraph()
        g.add_edge("a", "b", 1)
        g.add_node("island")
        g.set_label("a", 1.0)
        labels = propagate_labels(g, PropagationConfig(gamma=1))
        assert "island" not in labels
        assert labels["b"] == 1.0

    def test_unlabeled_as_zero_variant(self):
        g = HashtagGraph()
        g.add_edge("h3", "h1", 2)
        g.add_edge("h3", "h2", 1)
        g.add_node("far")
        g.add_edge("h2", "far", 1)
        seeded, _ = seed_labels(g, SeedSpec.from_pairs([("h1", 1)]))
        strict = propagate_labels(seeded, PropagationConfig(gamma=1))
        relaxed = propagate_labels(seeded, PropagationConfig(gamma=1, unlabeled_as_zero=True))
        assert strict["h3"] == 1.0
        # h2 unlabeled at h3's turn: its weight joins the denominator as label 0
        assert relaxed["h3"] == (1.0 * 2) / 3

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, max_nodes=25)
            nodes = sorted(g.nodes)
            g.set_label(nodes[0], 1.0)
            g.set_label(nodes[-1], -1.0)
            cfg = PropagationConfig(gamma=1)
            assert propagate_labels(g, cfg) == propagate_labels(g, cfg)

    def test_bounded_by_seed_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_connected_graph(rng, max_nodes=30)
            nodes = sorted(g.nodes)
            k = int(rng.integers(1, min(4, len(nodes)) + 1))
            seed_values = []
            for node in list(rng.choice(nodes, size=k, replace=False)):
                value = float(rng.choice([-1.0, 1.0]))
                g.set_label(str(node), value)
                seed_values.append(value)
            labels = propagate_labels(g, PropagationConfig(gamma=1))
            low, high = min(seed_values), max(seed_values)
            assert all(low <= v <= high for v in labels.values())

    def test_seed_immutability(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_connected_graph(rng, max_nodes=30)
            nodes = sorted(g.nodes)
            seeds = {str(nodes[0]): 1.0, str(nodes[-1]): -1.0}
            for node, value in seeds.items():
                g.set_label(node, value)
            labels = propagate_labels(g, PropagationConfig(gamma=1))
            for node, value in seeds.items():
                assert labels[node] == value

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        for factor, exact in ((2, True), (3, False)):
            for _ in range(25):
                g = random_connected_graph(rng, max_nodes=20)
                nodes = sorted(g.nodes)
                g.set_label(nodes[0], 1.0)
                g.set_label(nodes[-1], -1.0)
                scaled = g.copy()
                for a, nbrs in scaled.adj.items():
                    for b in nbrs:
                        nbrs[b] = nbrs[b] * factor
                base = propagate_labels(g, PropagationConfig(gamma=1))
                other = propagate_labels(scaled, PropagationConfig(gamma=1))
                assert base.keys() == other.keys()
                for node, value in base.items():
                    if exact:
                        assert other[node] == value
                    else:
                        assert other[node] == pytest.approx(value, rel=1e-12)

    def test_two_clique_sign_recovery(self):
        for size in range(3, 11):
            graph, plus_seed, minus_seed = two_clique_graph(size, size)
            graph.set_label(plus_seed, 1.0)
            graph.set_label(minus_seed, -1.0)
            labels = propagate_labels(graph, PropagationConfig(gamma=1))
            for node in graph.nodes:
                assert node in labels
                expected_sign = 1.0 if node.startswith("a") else -1.0
                assert math.copysign(1.0, labels[node]) == expected_sign
                assert labels[node] != 0


def graph_of(edges, isolated=(), seeds=()):
    g = HashtagGraph()
    for node in isolated:
        g.add_node(node)
    for a, b, w in edges:
        g.add_edge(a, b, w)
    for node, value in seeds:
        g.set_label(node, value)
    return g


@st.composite
def seeded_graphs(draw):
    """Up to 14 nodes, sparse enough for isolated nodes and several
    components, with 1 to 4 seeds."""
    names = draw(st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=1, max_size=14, unique=True))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[:i]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=25, unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    seeds = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    values = draw(st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0), min_size=len(seeds), max_size=len(seeds)))
    return graph_of([(a, b, w) for (a, b), w in zip(edges, weights)], names, zip(seeds, values))


class TestPropagationOracle:
    @settings(max_examples=400)
    @given(
        seeded_graphs(),
        st.sampled_from([1, 2, 3, 7, 100]),
        st.sampled_from([1, 2, 5, 10**6]),
        st.booleans(),
    )
    @example(graph_of([], ["a", "b", "c"], [("b", 1.0)]), 1, 10**6, False)
    @example(graph_of([("a", "b", 1), ("x", "y", 2), ("y", "z", 1)], ["q"], [("a", 1.0), ("z", -1.0)]), 2, 10**6, True)
    def test_matches_full_rescan(self, graph, gamma, max_passes, unlabeled_as_zero):
        cfg = PropagationConfig(gamma=gamma, max_passes=max_passes, unlabeled_as_zero=unlabeled_as_zero)
        # list and repr compare the insertion order and the float bits
        assert repr(list(propagate_labels(graph, cfg).items())) == repr(list(oracle_propagate_labels(graph, cfg).items()))

    # "x" has the seed and two unlabeled leaves as neighbors: deficit 2, so it
    # first qualifies in pass gamma * 2.
    STAR = [("s", "x", 1), ("x", "y1", 1), ("x", "y2", 1)]

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_jump_lands_on_the_first_qualifying_pass(self, gamma):
        graph = graph_of(self.STAR, [f"i{k}" for k in range(2 * gamma)], [("s", 1.0)])
        assert len(graph.adj) > gamma * 2
        for max_passes, labeled in ((gamma * 2, False), (gamma * 2 + 1, True)):
            cfg = PropagationConfig(gamma=gamma, max_passes=max_passes)
            labels = propagate_labels(graph, cfg)
            assert ("x" in labels) is labeled
            assert labels == oracle_propagate_labels(graph, cfg)

    def test_node_count_caps_the_passes(self):
        graph = graph_of(self.STAR, (), [("s", 1.0)])
        assert len(graph.adj) < 3 * 2
        assert propagate_labels(graph, PropagationConfig(gamma=3)) == {"s": 1.0}
        padded = graph_of(self.STAR, ["i0", "i1", "i2"], [("s", 1.0)])
        assert "x" in propagate_labels(padded, PropagationConfig(gamma=3))

    @staticmethod
    def passes_to_label_all(graph):
        for max_passes in range(1, len(graph.adj) + 1):
            cfg = PropagationConfig(gamma=1, max_passes=max_passes)
            labels = propagate_labels(graph, cfg)
            assert labels == oracle_propagate_labels(graph, cfg)
            if len(labels) == len(graph.adj):
                return max_passes
        return None

    def test_pass_order_follows_names(self):
        # a node labeled in a pass counts for later names in that pass only
        names = ["a", "b", "c", "d", "e"]
        chain = [(u, v, 1) for u, v in zip(names, names[1:])]
        increasing = graph_of(chain, (), [("a", 1.0)])
        decreasing = graph_of(chain, (), [("e", 1.0)])
        assert self.passes_to_label_all(increasing) == 2
        assert self.passes_to_label_all(decreasing) == 5


def test_labels_csv_roundtrip(tmp_path):
    labels = {"a": 1.0, "b": -1.0, "c": 1 / 3}
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    assert read_labels_csv(path) == labels
