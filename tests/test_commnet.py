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
    split_by_stance,
    transpose,
    write_network_json,
)
from stancelab.corpus import extract_interactions
from stancelab.hashtag_graph import HashtagGraph
from stancelab.stance import Stance, StanceRow, StanceTable
from util import (
    ESCAPED_CHARS,
    make_corpus,
    make_tweet,
    oracle_build_network,
    oracle_dot,
    oracle_gexf,
    oracle_group_subgraph,
    oracle_json_bytes,
    oracle_network_payload,
    random_corpus,
    random_network,
)


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


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 120),
    st.integers(1, 6),
    st.sampled_from([NetworkKind.RETWEET, NetworkKind.MENTION, NetworkKind.REPLY]),
    st.booleans(),
)
def test_build_network_matches_the_interaction_oracle(seed, n_tweets, n_users, kind, include_retweet_mentions):
    """Self interactions, mentions inside retweets, and empty corpora included."""
    corpus = random_corpus(np.random.default_rng(seed), n_tweets=n_tweets, n_users=n_users, allow_self=True)
    net = build_network(corpus, kind, include_retweet_mentions=include_retweet_mentions)
    expected = oracle_build_network(corpus, kind, include_retweet_mentions=include_retweet_mentions)
    assert net.kind is kind
    assert net.nodes == expected.nodes
    assert net.edges == expected.edges
    assert net.self_loop_count == expected.self_loop_count


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

    @given(
        st.sampled_from(NetworkKind),
        st.lists(st.text(alphabet='a"\\\n \u00e9\u20ac\U0001f600', min_size=1, max_size=4), max_size=6, unique=True),
        st.data(),
    )
    def test_dot_bytes_match_the_oracle(self, tmp_path_factory, kind, names, data):
        """Names and stances with quotes, backslashes, newlines and non-ASCII
        characters, nodes without a stance, and empty node or edge sets."""
        net = CommNetwork(kind=kind, nodes=set(names))
        if names:
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8))
            net.edges = {(src, dst): data.draw(st.integers(1, 2**40)) for src, dst in pairs if src != dst}
        stances = st.sampled_from([s.value for s in Stance]) | st.text(alphabet='b"\\\n\u00e9', max_size=3)
        net.node_attr = {n: data.draw(stances) for n in names if data.draw(st.booleans())}
        path = tmp_path_factory.mktemp("dot") / "net.dot"
        export_graph(net, "dot", path)
        assert path.read_bytes() == oracle_dot(net).encode("utf-8")

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
        for fmt in ("graphml", "CSV", "Dot"):  # a name is looked up as given
            with pytest.raises(ValueError, match=f"'{fmt}'; use one of dot, gexf, csv"):
                export_graph(self.simple_net(), fmt, tmp_path / "x")
        assert list(tmp_path.iterdir()) == []


def test_config_and_export_graph_accept_the_same_format_names(tmp_path):
    from dataclasses import replace

    from stancelab import pipeline
    from stancelab.demo import write_demo_config

    cfg = pipeline.PipelineConfig.from_file(write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out"))
    net = CommNetwork(kind=NetworkKind.ALL_COMMUNICATION)
    net.add_edge("a", "b", 1)

    def accepted(check, fmt):
        try:
            check(fmt)
        except ValueError:  # ConfigError is one
            return False
        return True

    names = ["csv", "gexf", "dot", "CSV", "Dot", "GEXF", " csv", "graphml", ""]
    by_config = [fmt for fmt in names if accepted(lambda f: replace(cfg, export_formats=(f,)).validate(), fmt)]
    by_export = [fmt for fmt in names if accepted(lambda f: export_graph(net, f, tmp_path / "x"), fmt)]
    assert by_config == by_export == ["csv", "gexf", "dot"]


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


names = st.text(alphabet=st.sampled_from(ESCAPED_CHARS), max_size=3)


@given(
    st.sampled_from(NetworkKind),
    st.sets(names, max_size=6),
    st.dictionaries(st.tuples(names, names).filter(lambda p: p[0] != p[1]), st.integers(1, 2**40), max_size=8),
    st.dictionaries(names, st.sampled_from([s.value for s in Stance]) | names, max_size=4),
    st.integers(0, 2**40),
)
def test_network_json_has_the_bytes_of_json_dump(tmp_path_factory, kind, nodes, edges, node_attr, self_loops):
    """Including empty node, edge and attribute sets."""
    net = CommNetwork(kind=kind, nodes=nodes | {n for pair in edges for n in pair}, edges=edges, node_attr=node_attr)
    net.self_loop_count = self_loops
    tmp = tmp_path_factory.mktemp("net")
    write_network_json(net, tmp / "net.json")
    assert (tmp / "net.json").read_bytes() == oracle_json_bytes(tmp, oracle_network_payload(net))


@given(
    seed=st.integers(0, 2**32 - 1),
    groups=st.lists(st.sets(st.sampled_from(Stance)), min_size=1, max_size=4),
)
def test_subgraphs_from_one_split_equal_whole_network_scans(seed, groups):
    """Nodes without a stance row, attributes on some nodes only, and one
    split shared by several subgraphs."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_nodes=12)
    stances = list(Stance)
    table = stance_table(**{n: stances[int(rng.integers(0, 3))] for n in sorted(net.nodes) if rng.random() < 0.8})
    net.node_attr = {n: "attr" + n for n in sorted(net.nodes) if rng.random() < 0.6}
    split = split_by_stance(net, table)
    for wanted in groups:
        expected = oracle_group_subgraph(net, table, wanted)
        assert group_subgraph(net, table, wanted, split=split) == expected
        assert group_subgraph(net, table, wanted) == expected


@given(seed=st.integers(0, 2**32 - 1))
def test_sorted_edges_follow_the_name_pairs(seed):
    net = random_network(np.random.default_rng(seed), max_nodes=14)
    names, edges = net.in_order()
    assert names == sorted(net.nodes)
    assert [(names[i], names[j], w) for i, j, w in edges] == [(a, b, w) for (a, b), w in sorted(net.edges.items())]


@given(
    st.sets(names, max_size=6),
    st.dictionaries(st.tuples(names, names).filter(lambda p: p[0] != p[1]), st.integers(1, 2**40), max_size=10),
)
def test_in_order_of_both_graphs_is_the_sorted_name_pairs(nodes, edges):
    """Escaped names, isolated nodes, and the empty graph, for a network and
    for the hashtag graph built on the same pairs."""
    net = CommNetwork(kind=NetworkKind.MENTION, nodes=nodes | {n for pair in edges for n in pair}, edges=edges)
    listed, ordered = net.in_order()
    assert listed == sorted(net.nodes)
    assert [(listed[i], listed[j], w) for i, j, w in ordered] == sorted((a, b, w) for (a, b), w in edges.items())

    graph = HashtagGraph()
    for node in nodes:
        graph.add_node(node)
    for (a, b), w in edges.items():
        graph.add_edge(a, b, w)
    listed, ordered = graph.in_order()
    assert listed == sorted(graph.adj)
    assert all(i < j for i, j, _ in ordered)
    pairs = {(min(a, b), max(a, b)): graph.adj[a][b] for a, b in edges}
    assert [(listed[i], listed[j], w) for i, j, w in ordered] == sorted((a, b, w) for (a, b), w in pairs.items())


@pytest.mark.parametrize("formats", [(), ("csv",), ("csv", "gexf", "dot")])
def test_networks_stage_sorts_each_network_once(tmp_path, monkeypatch, formats):
    """However many files list a network's edges, its ``in_order`` form is worked out once."""
    from stancelab import pipeline
    from stancelab.demo import write_demo_config

    cfg = pipeline.PipelineConfig.from_file(write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out"))
    cfg.export_formats = formats
    for stage in pipeline.STAGE_ORDER[: pipeline.STAGE_ORDER.index("networks")]:
        pipeline.run_stage(stage, cfg)
    sorted_kinds = []
    in_order = CommNetwork.in_order

    def counting(net):
        sorted_kinds.append(net.kind)
        return in_order(net)

    monkeypatch.setattr(CommNetwork, "in_order", counting)
    pipeline.run_stage("networks", cfg)
    kinds = [read_network_json(cfg.output_dir / "networks" / f"{name}.json").kind for name in pipeline._NETWORK_NAMES]
    assert sorted_kinds == kinds


@pytest.mark.parametrize("fmt", ["csv", "gexf", "dot"])
def test_export_with_the_sorted_edges_passed_writes_the_same_bytes(tmp_path, fmt):
    net = random_network(np.random.default_rng(5))
    net.node_attr = {n: Stance.BELIEVER.value for n in net.nodes}
    export_graph(net, fmt, tmp_path / "own")
    export_graph(net, fmt, tmp_path / "passed", net.in_order())
    write_network_json(net, tmp_path / "own.json")
    write_network_json(net, tmp_path / "passed.json", net.in_order())
    assert (tmp_path / "own").read_bytes() == (tmp_path / "passed").read_bytes()
    assert (tmp_path / "own.json").read_bytes() == (tmp_path / "passed.json").read_bytes()
