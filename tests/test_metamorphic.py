"""Whole-bundle metamorphic relations on the demo bundle, and all but the
last on small random corpora too.

Each relation transforms the inputs, builds a second bundle with
``run_pipeline`` and compares it file by file with the first:

- seed sign flip: negating every seed label swaps the two camps, so each
  file equals its counterpart with ``believer`` and ``disbeliever``
  swapped, in its path and in its text; the labels and polarities are
  negated exactly, and four summary files list the same rows in another
  order;
- line-order shuffle: shuffling the corpus lines changes only
  ``corpus.jsonl`` (the same lines in the new order) and the two topic
  models, since LDA depends on document order;
- renaming: one prefix on every user id keeps the ids in the same order, so
  every file equals its counterpart once the prefix is removed; so does one
  prefix on every hashtag, but for the two topic models;
- one camp's text: rewriting the words of the disbelievers' tweets leaves
  the believers' frequency and topic files as they were, since each camp's
  text pass reads only that camp's tweets.

The random corpora (``tests/util.py:random_corpus``, drawn by hypothesis)
reach shapes the demo lacks: an empty camp and users without hashtags.  The
seed flip and user renaming also run on corpora whose networks are all
acyclic, where eigenvector centrality takes its exact branch.

Negation is exact in IEEE arithmetic, through sums and weighted averages,
so the flipped values are compared with ``==``.
"""

import csv
import io
import json
import random
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stancelab import netmetrics
from stancelab.corpus import normalize_hashtag
from stancelab.demo import DEMO_SEEDS, write_demo_config
from stancelab.fileio import read_csv, write_csv, write_jsonl
from stancelab.hashtag_graph import build_cooccurrence_graph
from stancelab.pipeline import PipelineConfig, run_pipeline
from util import append_record, random_corpus, read_records, record_to_dict

# file -> index of the column the seed flip negates
NEGATED = {"hashtag_labels.csv": 1, "stance.csv": 1}
# files whose rows the seed flip reorders
REORDERED = ("bot_sweep.csv", "concentration.json", "influencer_summary.json", "metrics.json")
# files a corpus line shuffle may change
ORDER_DEPENDENT = ("corpus.jsonl", "text/topics_believer.json", "text/topics_disbeliever.json")
# the tweet fields that hold one user id
USER_FIELDS = ("user_id", "retweeted_user_id", "in_reply_to_user_id")


def swap(text: str) -> str:
    return re.sub(r"(dis)?believer", lambda m: "believer" if m.group(1) else "disbeliever", text)


def build(cfg: PipelineConfig, out, **changes) -> dict[str, str]:
    """Every bundle file but the manifest, by path, as text."""
    root = run_pipeline(replace(cfg, output_dir=out, **changes))
    files = (p for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json")
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8") for p in files}


def rows(name: str, text: str) -> list:
    """A CSV's rows, or a JSON file's top-level rows (a dict's items)."""
    if name.endswith(".csv"):
        return list(csv.reader(io.StringIO(text)))
    data = json.loads(text)
    return list(data.items()) if isinstance(data, dict) else data


def sorted_rows(name: str, text: str) -> list:
    return sorted(rows(name, text), key=lambda row: json.dumps(row, sort_keys=True))


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    base = tmp_path_factory.mktemp("metamorphic")
    cfg = PipelineConfig.from_file(write_demo_config(base / "inputs"))
    lines = cfg.corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    tweets = [json.loads(line) for line in lines]
    # The relations need these of the inputs: a duplicate tweet id keeps its
    # first line and a user's first screen name is the one printed, so both
    # would depend on line order; and the swap must meet no other "believer".
    assert len({t["tweet_id"] for t in tweets}) == len(tweets)
    assert len({(t["user_id"], t["screen_name"]) for t in tweets}) == len({t["user_id"] for t in tweets})
    for path in cfg.input_files().values():
        assert "believer" not in path.read_text(encoding="utf-8").casefold()
    return base, cfg, lines, build(cfg, base / "bundle")


@st.composite
def small_inputs(draw, ascending=False):
    """A random corpus and seed labels for one to three tags of its
    co-occurrence graph (propagation refuses a graph with no seeded node).
    ``ascending`` is ``random_corpus``'s: every network is then acyclic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corpus = random_corpus(rng, draw(st.integers(4, 24)), ascending=ascending)
    tags = sorted(build_cooccurrence_graph(corpus, PipelineConfig.min_cooccurrence).adj)
    assume(tags)
    seeds = draw(st.dictionaries(st.sampled_from(tags), st.sampled_from([-1, 1]), min_size=1, max_size=3))
    return corpus, sorted(seeds.items())


def small_config(cfg: PipelineConfig, base, corpus, seeds) -> tuple[PipelineConfig, list[str]]:
    """The demo config over a random corpus and its seeds, with bot scores
    for two users in three, account types for the first three users and a
    few Gibbs sweeps; and the corpus lines."""
    users = sorted(corpus.users)
    paths = {
        "corpus_path": base / "corpus.jsonl",
        "seed_file": base / "seeds.csv",
        "bot_scores_path": base / "bot_scores.csv",
        "account_types_path": base / "account_types.csv",
    }
    write_jsonl(paths["corpus_path"], [record_to_dict(t) for t in corpus.tweets])
    write_csv(paths["seed_file"], ("hashtag", "label"), seeds)
    write_csv(paths["bot_scores_path"], ("user_id", "probability"), [(u, i % 5 / 4) for i, u in enumerate(users) if i % 3])
    write_csv(paths["account_types_path"], ("user_id", "type"), [(u, ("news", "other")[i % 2]) for i, u in enumerate(users[:3])])
    lines = paths["corpus_path"].read_text(encoding="utf-8").splitlines(keepends=True)
    return replace(cfg, lda_iterations=3, **paths), lines


def assert_seed_sign_flip_swaps_the_camps(cfg, base, seeds, bundle) -> None:
    negated = base / "negated_seeds.csv"
    write_csv(negated, ("hashtag", "label"), [(tag, -label) for tag, label in seeds])
    flipped = build(cfg, base / "flipped", seed_file=negated)
    assert sorted(map(swap, bundle)) == sorted(flipped)
    for name, text in bundle.items():
        got = flipped[swap(name)]
        if name in NEGATED:
            col = NEGATED[name]
            want, have = rows(name, swap(text)), rows(name, got)
            assert len(want) == len(have), name
            assert want[0] == have[0], name
            for w, h in zip(want[1:], have[1:]):
                assert w[:col] + w[col + 1 :] == h[:col] + h[col + 1 :], name
                assert (w[col] == h[col] == "") or float(h[col]) == -float(w[col]), (name, w, h)
        elif name in REORDERED:
            assert sorted_rows(name, got) == sorted_rows(name, swap(text)), name
        else:
            assert got == swap(text), name


def test_seed_sign_flip_swaps_the_camps(demo):
    base, cfg, _, bundle = demo
    assert "believer" in bundle["stance.csv"] and "disbeliever" in bundle["stance.csv"]
    assert all(len(rows(name, bundle[name])) > 1 for name in NEGATED)
    assert_seed_sign_flip_swaps_the_camps(cfg, base, DEMO_SEEDS, bundle)


@pytest.mark.filterwarnings("ignore:topic count .* exceeds vocabulary size")  # the random texts share few words
@settings(max_examples=20)
@given(inputs=small_inputs())
def test_seed_sign_flip_swaps_the_camps_on_small_corpora(demo, tmp_path_factory, inputs):
    corpus, seeds = inputs
    base = tmp_path_factory.mktemp("flip")
    cfg, _ = small_config(demo[1], base, corpus, seeds)
    assert_seed_sign_flip_swaps_the_camps(cfg, base, seeds, build(cfg, base / "bundle"))


def assert_user_id_prefix_renames_it_in_every_file(cfg, base, lines, bundle) -> dict[str, str]:
    prefix = "acct_"
    for path in cfg.input_files().values():
        assert prefix not in path.read_text(encoding="utf-8")
    assert not [name for name, text in bundle.items() if prefix in text]
    renamed_lines = []
    for line in lines:
        tweet = json.loads(line)
        for key in USER_FIELDS:
            if tweet.get(key) is not None:
                tweet[key] = prefix + tweet[key]
        tweet["mentioned_user_ids"] = [prefix + m for m in tweet.get("mentioned_user_ids", [])]
        renamed_lines.append(json.dumps(tweet) + "\n")
    inputs = {"corpus_path": base / "renamed_corpus.jsonl"}
    inputs["corpus_path"].write_text("".join(renamed_lines), encoding="utf-8")
    for field, columns in (("bot_scores_path", ("user_id", "probability")), ("account_types_path", ("user_id", "type"))):
        inputs[field] = base / f"renamed_{field}.csv"
        rows = read_csv(getattr(cfg, field), columns, lambda row: (prefix + row[0], *row[1:]))
        write_csv(inputs[field], columns, rows)
    renamed = build(cfg, base / "renamed", **inputs)
    assert sorted(renamed) == sorted(bundle)
    assert prefix in renamed["stance.csv"]
    for name, text in bundle.items():
        assert renamed[name].replace(prefix, "") == text, name
    return renamed


def test_prefixing_every_user_id_renames_it_in_every_file(demo):
    base, cfg, lines, bundle = demo
    renamed = assert_user_id_prefix_renames_it_in_every_file(cfg, base, lines, bundle)
    assert "acct_" in renamed["networks/mention.json"]


@pytest.mark.filterwarnings("ignore:topic count .* exceeds vocabulary size")  # the random texts share few words
@settings(max_examples=20)
@given(inputs=small_inputs())
def test_prefixing_every_user_id_renames_it_in_every_file_on_small_corpora(demo, tmp_path_factory, inputs):
    base = tmp_path_factory.mktemp("prefix")
    cfg, lines = small_config(demo[1], base, *inputs)
    assert_user_id_prefix_renames_it_in_every_file(cfg, base, lines, build(cfg, base / "bundle"))


def test_rewriting_the_disbelievers_text_leaves_the_believers_text_files(demo):
    """Each word of a disbeliever's tweet is reversed; the hashtags, and so
    the stances, stay.  Only the disbelievers' text files may change."""
    base, cfg, lines, bundle = demo
    disbelievers = {row[0] for row in rows("stance.csv", bundle["stance.csv"])[1:] if row[2] == "disbeliever"}
    assert disbelievers
    rewritten_lines = []
    for line in lines:
        tweet = json.loads(line)
        if tweet["user_id"] in disbelievers:
            tweet["text"] = " ".join(w if w[:1] in "#@" else w[::-1] for w in tweet["text"].split())
        rewritten_lines.append(json.dumps(tweet) + "\n")
    corpus = base / "rewritten_corpus.jsonl"
    corpus.write_text("".join(rewritten_lines), encoding="utf-8")
    rewritten = build(cfg, base / "rewritten", corpus_path=corpus)
    assert rewritten["stance.csv"] == bundle["stance.csv"]
    assert rewritten["text/frequencies_disbeliever.csv"] != bundle["text/frequencies_disbeliever.csv"]
    for name in ("text/frequencies_believer.csv", "text/topics_believer.json"):
        assert rewritten[name] == bundle[name], name


def assert_hashtag_prefix_renames_it_in_every_file_but_the_topics(cfg, base, lines, seeds, bundle) -> None:
    """The prefix goes on each entry of the records' ``hashtags`` lists, after
    each ``#`` in the tweet text, and on each seed tag.  It is already case
    folded, so ``normalize_hashtag`` keeps it, and it keeps the tags in the
    same order among themselves.  The LDA vocabulary sorts the tags together
    with the words, though, so tied top words may come out in another order
    in ``text/topics_*.json``; those two files are left out."""
    prefix = "zq"
    assert normalize_hashtag(prefix) == prefix
    for path in cfg.input_files().values():
        assert prefix not in path.read_text(encoding="utf-8").casefold()
    assert not [name for name, text in bundle.items() if prefix in text]
    renamed_lines = []
    for line in lines:
        tweet = json.loads(line)
        tweet["hashtags"] = [prefix + tag for tag in tweet["hashtags"]]
        tweet["text"] = tweet["text"].replace("#", "#" + prefix)
        renamed_lines.append(json.dumps(tweet) + "\n")
    corpus, tagged_seeds = base / "tagged_corpus.jsonl", base / "tagged_seeds.csv"
    corpus.write_text("".join(renamed_lines), encoding="utf-8")
    write_csv(tagged_seeds, ("hashtag", "label"), [(prefix + tag, label) for tag, label in seeds])
    renamed = build(cfg, base / "tagged", corpus_path=corpus, seed_file=tagged_seeds)
    assert sorted(renamed) == sorted(bundle)
    assert prefix in renamed["hashtag_graph.json"] and prefix in renamed["corpus.jsonl"]
    for name, text in bundle.items():
        if not name.startswith("text/topics_"):
            assert renamed[name].replace(prefix, "") == text, name


def test_prefixing_every_hashtag_renames_it_in_every_file_but_the_topics(demo):
    base, cfg, lines, bundle = demo
    assert_hashtag_prefix_renames_it_in_every_file_but_the_topics(cfg, base, lines, DEMO_SEEDS, bundle)


@pytest.mark.filterwarnings("ignore:topic count .* exceeds vocabulary size")  # the random texts share few words
@settings(max_examples=20)
@given(inputs=small_inputs())
def test_prefixing_every_hashtag_renames_it_in_every_file_but_the_topics_on_small_corpora(demo, tmp_path_factory, inputs):
    corpus, seeds = inputs
    base = tmp_path_factory.mktemp("tagged")
    cfg, lines = small_config(demo[1], base, corpus, seeds)
    assert_hashtag_prefix_renames_it_in_every_file_but_the_topics(cfg, base, lines, seeds, build(cfg, base / "bundle"))


def assert_line_order_changes_only_the_corpus_and_topics(cfg, base, lines, bundle, shuffled_lines, label) -> None:
    assert shuffled_lines != lines
    corpus = base / f"{label}.jsonl"
    corpus.write_text("".join(shuffled_lines), encoding="utf-8")
    shuffled = build(cfg, base / label, corpus_path=corpus)
    assert sorted(shuffled) == sorted(bundle)
    changed = sorted(name for name in bundle if shuffled[name] != bundle[name])
    assert set(changed) <= set(ORDER_DEPENDENT)
    assert sorted(shuffled["corpus.jsonl"].splitlines()) == sorted(bundle["corpus.jsonl"].splitlines())


@pytest.mark.parametrize("shuffle_seed", range(5))
def test_corpus_line_order_changes_only_the_corpus_and_topics(demo, shuffle_seed):
    base, cfg, lines, bundle = demo
    shuffled_lines = list(lines)
    random.Random(shuffle_seed).shuffle(shuffled_lines)
    assert_line_order_changes_only_the_corpus_and_topics(cfg, base, lines, bundle, shuffled_lines, f"shuffled_{shuffle_seed}")


@pytest.mark.filterwarnings("ignore:topic count .* exceeds vocabulary size")  # the random texts share few words
@settings(max_examples=20)
@given(inputs=small_inputs())
def test_corpus_line_order_changes_only_the_corpus_and_topics_on_small_corpora(demo, tmp_path_factory, inputs):
    """The lines reversed: the tweet ids differ, so each line moves but the middle one."""
    base = tmp_path_factory.mktemp("reversed")
    cfg, lines = small_config(demo[1], base, *inputs)
    bundle = build(cfg, base / "bundle")
    assert_line_order_changes_only_the_corpus_and_topics(cfg, base, lines, bundle, lines[::-1], "reversed")


@pytest.mark.filterwarnings("ignore:topic count .* exceeds vocabulary size")  # the random texts share few words
def test_seed_flip_and_user_prefix_on_acyclic_corpora(demo, tmp_path_factory):
    """Every interaction aims at a user with a higher index, so each group
    base is acyclic and ``eigenvector_centrality`` takes its exact branch,
    in the forked child that runs ``metrics``; the records show it did."""
    runs = tmp_path_factory.mktemp("acyclic") / "eigenvector_runs.jsonl"
    eigenvector_run = netmetrics._eigenvector_run

    def recording(net, tol, max_iter):
        run = eigenvector_run(net, tol, max_iter)
        append_record(runs, [run.acyclic, len(net.edges)])
        return run

    @settings(max_examples=20)
    @given(inputs=small_inputs(ascending=True))
    def check(inputs):
        corpus, seeds = inputs
        base = tmp_path_factory.mktemp("acyclic")
        cfg, lines = small_config(demo[1], base, corpus, seeds)
        bundle = build(cfg, base / "bundle")
        assert_seed_sign_flip_swaps_the_camps(cfg, base, seeds, bundle)
        assert_user_id_prefix_renames_it_in_every_file(cfg, base, lines, bundle)

    with patch.object(netmetrics, "_eigenvector_run", recording):
        check()
    records = read_records(runs)
    assert all(acyclic for acyclic, _ in records)
    assert any(edges for _, edges in records)
