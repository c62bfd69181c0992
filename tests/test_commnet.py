import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab.commnet import (
    CommNetwork,
    NetworkKind,
    all_communication,
    attach_stances,
    build_network,
    export_graph,
    group_subgraph,
    read_network_json,
    reciprocal_subnetwork,
    transpose,
    write_network_json,
)
from stancelab.corpus import extract_interactions
from stancelab.stance import Stance, StanceRow, StanceTable
from util import make_corpus, make_tweet, oracle_gexf, random_corpus


def stance_table(**stances) -> StanceTable:
    return StanceTable(
        rows={
            user: StanceRow(user_id=user, polarity=None, stance=stance, hashtag_count=0)
            for user, stance in stances.items()
        }
    )


class TestBuilders:
    def test_repeated_retweet_weight(self):
        corpus = make_corpus(
            make_tweet("t1", "a", retweeted="b"),
            make_tweet("t2", "a", retweeted="b"),
        )
        net = build_network(corpus, NetworkKind.RETWEET)
        assert net.edges == {("a", "b"): 2}
        assert net.nodes == {"a", "b"}

    def test_mention_fanout(self):
        corpus = make_corpus(make_tweet("t1", "a", mentions=["b", "c"]))
        net = build_network(corpus, NetworkKind.MENTION)
        assert net.edges == {("a", "b"): 1, ("a", "c"): 1}

    def test_empty_reply_network(self):
        corpus = make_corpus(make_tweet("t1", "a", mentions=["b"]))
        net = build_network(corpus, NetworkKind.REPLY)
        assert net.edges == {}
        assert net.nodes == set()

    def test_self_interactions_excluded_but_counted(self):
        corpus = make_corpus(make_tweet("t1", "a", mentions=["a", "b"]))
        net = build_network(corpus, NetworkKind.MENTION)
        assert net.edges == {("a", "b"): 1}
        assert net.self_loop_count == 1

    def test_retweet_mention_flag(self):
        corpus = make_corpus(
            make_tweet("t1", "a", mentions=["b"], retweeted="c"),
            make_tweet("t2", "a", mentions=["d"]),
        )
        with_rt = build_network(corpus, NetworkKind.MENTION)
        without_rt = build_network(corpus, NetworkKind.MENTION, include_retweet_mentions=False)
        assert with_rt.edges == {("a", "b"): 1, ("a", "d"): 1}
        assert without_rt.edges == {("a", "d"): 1}

    def test_only_derived_kinds_rejected(self):
        with pytest.raises(ValueError):
            build_network(make_corpus(), NetworkKind.ALL_COMMUNICATION)


class TestAllCommunication:
    def build_all(self, corpus):
        return all_communication(
            build_network(corpus, NetworkKind.RETWEET),
            build_network(corpus, NetworkKind.MENTION),
            build_network(corpus, NetworkKind.REPLY),
            corpus,
        )

    def test_weights_sum_across_kinds(self):
        corpus = make_corpus(
            make_tweet("t1", "a", retweeted="b"),
            make_tweet("t2", "a", retweeted="b", mentions=["b"]),
        )
        combined = self.build_all(corpus)
        assert combined.weight("a", "b") == 3

    def test_lone_author_becomes_isolated_node(self):
        corpus = make_corpus(make_tweet("t1", "loner"))
        combined = self.build_all(corpus)
        assert combined.nodes == {"loner"}
        assert combined.edges == {}

    def test_three_empty_networks_keep_authors(self):
        corpus = make_corpus(make_tweet("t1", "a"), make_tweet("t2", "b"))
        combined = self.build_all(corpus)
        assert combined.nodes == {"a", "b"}
        assert combined.edges == {}

    def test_kind_mismatch_rejected(self):
        corpus = make_corpus(make_tweet("t1", "a"))
        mention = build_network(corpus, NetworkKind.MENTION)
        with pytest.raises(ValueError, match="retweet"):
            all_communication(mention, mention, mention, corpus)

    def test_pairwise_sums_match_kind_networks(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            corpus = random_corpus(rng, n_tweets=40)
            nets = {
                kind: build_network(corpus, kind)
                for kind in (NetworkKind.RETWEET, NetworkKind.MENTION, NetworkKind.REPLY)
            }
            combined = all_communication(
                nets[NetworkKind.RETWEET], nets[NetworkKind.MENTION], nets[NetworkKind.REPLY], corpus
            )
            pairs = set(combined.edges)
            for net in nets.values():
                pairs |= set(net.edges)
            for pair in pairs:
                assert combined.weight(*pair) == sum(net.weight(*pair) for net in nets.values())


class TestConservation:
    def test_edge_weight_totals_match_record_counts(self):
        rng = np.random.default_rng(4)
        corpus = random_corpus(rng, n_tweets=500)
        expected = {NetworkKind.RETWEET: 0, NetworkKind.MENTION: 0, NetworkKind.REPLY: 0}
        for t in corpus.tweets:
            for inter in extract_interactions(t):
                expected[NetworkKind(inter.kind.value)] += 1
        for kind, count in expected.items():
            assert build_network(corpus, kind).total_weight() == count

    def test_self_loops_accounted_separately(self):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, n_tweets=300, allow_self=True)
        total_mentions = sum(len(t.mentioned_user_ids) for t in corpus.tweets)
        net = build_network(corpus, NetworkKind.MENTION)
        assert net.total_weight() + net.self_loop_count == total_mentions


class TestReciprocal:
    def test_filters_one_way_edges(self):
        net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
        net.add_edge("a", "b", 1)
        net.add_edge("b", "a", 1)
        net.add_edge("a", "c", 1)
        recip = reciprocal_subnetwork(net)
        assert set(recip.edges) == {("a", "b"), ("b", "a")}
        assert recip.is_symmetric()
        assert recip.nodes == net.nodes

    def test_symmetric_input_is_fixpoint(self):
        net = CommNetwork(kind=NetworkKind.RECIPROCAL)
        net.add_edge("a", "b", 2)
        net.add_edge("b", "a", 5)
        recip = reciprocal_subnetwork(net)
        assert recip == net

    def test_idempotent(self):
        net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
        net.add_edge("a", "b", 1)
        net.add_edge("b", "a", 3)
        net.add_edge("c", "a", 1)
        once = reciprocal_subnetwork(net)
        assert reciprocal_subnetwork(once) == once

    def test_edgeless(self):
        net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION, nodes={"a"})
        assert reciprocal_subnetwork(net).edges == {}


class TestGroupSubgraph:
    def make_net(self):
        net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
        net.add_edge("d1", "d2", 1)
        net.add_edge("d1", "b1", 2)
        net.add_edge("b1", "u1", 1)
        net.nodes.add("stranger")  # never authored a tweet, no stance row
        return net, stance_table(
            d1=Stance.DISBELIEVER, d2=Stance.DISBELIEVER, b1=Stance.BELIEVER, u1=Stance.UNCLASSIFIED
        )

    def test_single_group(self):
        net, table = self.make_net()
        sub = group_subgraph(net, table, {Stance.DISBELIEVER})
        assert sub.nodes == {"d1", "d2"}
        assert sub.edges == {("d1", "d2"): 1}

    def test_adding_groups_is_monotone(self):
        net, table = self.make_net()
        small = group_subgraph(net, table, {Stance.DISBELIEVER})
        large = group_subgraph(net, table, {Stance.DISBELIEVER, Stance.UNCLASSIFIED})
        assert set(small.edges) <= set(large.edges)
        assert small.nodes <= large.nodes

    def test_all_groups_is_identity(self):
        net, table = self.make_net()
        assert group_subgraph(net, table, set(Stance)) == net

    def test_missing_users_count_as_unclassified(self):
        net, table = self.make_net()
        sub = group_subgraph(net, table, {Stance.UNCLASSIFIED})
        assert sub.nodes == {"u1", "stranger"}


def test_attach_stances_covers_every_node():
    net = CommNetwork(kind=NetworkKind.RETWEET)
    net.add_edge("a", "b", 1)
    tagged = attach_stances(net, stance_table(a=Stance.BELIEVER))
    assert tagged.node_attr == {"a": "believer", "b": "unclassified"}


def test_transpose_reverses_edges():
    net = CommNetwork(kind=NetworkKind.MENTION)
    net.add_edge("a", "b", 4)
    assert transpose(net).edges == {("b", "a"): 4}


class TestExports:
    def simple_net(self):
        net = CommNetwork(kind=NetworkKind.RETWEET)
        net.add_edge("alice", "bob", 2)
        net.node_attr = {"alice": "believer", "bob": "disbeliever"}
        return net

    def test_dot(self, tmp_path):
        path = tmp_path / "net.dot"
        export_graph(self.simple_net(), "dot", path)
        text = path.read_text(encoding="utf-8")
        assert '"alice" -> "bob" [weight=2];' in text
        assert 'stance="believer"' in text

    def test_gexf_has_stance_on_every_node(self, tmp_path):
        path = tmp_path / "net.gexf"
        net = self.simple_net()
        net.nodes.add("carol")  # no stance attr -> exported as unclassified
        export_graph(net, "gexf", path)
        root = ET.parse(path).getroot()
        ns = {"g": "http://www.gexf.net/1.2draft"}
        nodes = root.findall(".//g:node", ns)
        assert len(nodes) == 3
        for node in nodes:
            values = node.findall(".//g:attvalue", ns)
            assert len(values) == 1
        edge = root.find(".//g:edge", ns)
        assert edge.get("source") == "alice" and edge.get("weight") == "2"

    @given(
        st.lists(st.text(alphabet='a&<>"\'\r\n\t \u00e9', min_size=1, max_size=4), max_size=6, unique=True),
        st.data(),
    )
    def test_gexf_bytes_match_elementtree(self, tmp_path_factory, names, data):
        """Escaped names, nodes without a stance, and empty node or edge lists."""
        net = CommNetwork(kind=NetworkKind.RETWEET, nodes=set(names))
        if names:
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8))
            net.edges = {(src, dst): data.draw(st.integers(1, 30)) for src, dst in pairs if src != dst}
        stances = st.sampled_from([s.value for s in Stance]) | st.text(alphabet='b&"\n', max_size=3)
        net.node_attr = {n: data.draw(stances) for n in names if data.draw(st.booleans())}
        path = tmp_path_factory.mktemp("gexf") / "net.gexf"
        export_graph(net, "gexf", path)
        assert path.read_bytes() == oracle_gexf(net).encode("utf-8")

    def test_edge_csv_roundtrip(self, tmp_path):
        path = tmp_path / "net.csv"
        net = self.simple_net()
        net.add_edge("bob", "alice", 1)
        export_graph(net, "csv", path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header == "src,dst,weight"
        loaded = {(src, dst): int(w) for src, dst, w in (row.split(",") for row in rows)}
        assert loaded == net.edges

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_graph(self.simple_net(), "graphml", tmp_path / "x")


def test_network_json_roundtrip(tmp_path):
    net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
    net.add_edge("a", "b", 2)
    net.nodes.add("island")
    net.node_attr = {"a": "believer"}
    net.self_loop_count = 3
    write_network_json(net, tmp_path / "net.json")
    loaded = read_network_json(tmp_path / "net.json")
    assert loaded == net
    assert loaded.self_loop_count == 3
