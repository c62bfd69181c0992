import hashlib
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from stancelab.corpus import (
    Corpus,
    CorpusFormatError,
    InteractionKind,
    dump_corpus,
    extract_interactions,
    load_corpus,
    normalize_hashtag,
    record_to_dict,
)
from util import make_corpus, make_tweet, random_corpus

import numpy as np


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_minimal_record(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        ['{"tweet_id":"1","user_id":"u1","screen_name":"a","text":"hi","hashtags":["cop24"]}'],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert corpus.n_users == 1
    assert corpus.tweets[0].hashtags == ("cop24",)
    assert corpus.skipped_count == 0


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 0
    assert corpus.n_users == 0


def test_lenient_skips_malformed(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        [
            '{"tweet_id":"1","user_id":"u1","text":"a","hashtags":[]}',
            "{not json",
            '{"tweet_id":"2","user_id":"u2","text":"b","hashtags":["x"]}',
        ],
    )
    corpus = load_corpus(path, strict=False)
    assert len(corpus) == 2
    assert corpus.skipped_count == 1


def test_strict_raises_on_malformed(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", ["{not json"])
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_corpus(path, strict=True)


def test_missing_required_field(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", ['{"tweet_id":"1","user_id":"u1","hashtags":[]}'])
    with pytest.raises(CorpusFormatError, match="text"):
        load_corpus(path, strict=True)
    assert load_corpus(path, strict=False).skipped_count == 1


def test_duplicate_tweet_id(tmp_path):
    lines = [
        '{"tweet_id":"1","user_id":"u1","text":"first","hashtags":[]}',
        '{"tweet_id":"1","user_id":"u2","text":"second","hashtags":[]}',
    ]
    path = write_lines(tmp_path / "c.jsonl", lines)
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(path, strict=True)
    corpus = load_corpus(path, strict=False)
    assert len(corpus) == 1
    assert corpus.tweets[0].text == "first"
    assert corpus.duplicate_count == 1


def test_hashtags_normalized_on_load(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        ['{"tweet_id":"1","user_id":"u1","text":"x","hashtags":["#ClimateHoax"," #A ","#  "]}'],
    )
    corpus = load_corpus(path)
    assert corpus.tweets[0].hashtags == ("climatehoax", "a")


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("#ClimateHoax", "climatehoax"),
        ("climatechangeisreal", "climatechangeisreal"),
        ("#  ", None),
        ("  #MixedCase  ", "mixedcase"),
        ("#", None),
        ("", None),
    ],
)
def test_normalize_hashtag(raw, expected):
    assert normalize_hashtag(raw) == expected


def test_extract_interactions_retweet_only():
    t = make_tweet("t1", "u_self", retweeted="u9")
    out = extract_interactions(t)
    assert [(i.kind, i.source, i.target) for i in out] == [(InteractionKind.RETWEET, "u_self", "u9")]


def test_extract_interactions_mentions_and_reply():
    t = make_tweet("t1", "u0", mentions=["a", "b"], reply_to="c")
    out = extract_interactions(t)
    kinds = sorted(i.kind.value for i in out)
    assert kinds == ["mention", "mention", "reply"]
    assert len(out) == 3


def test_extract_interactions_empty():
    assert extract_interactions(make_tweet("t1", "u0")) == []


def test_extract_interactions_flags_self():
    t = make_tweet("t1", "u0", mentions=["u0", "u1"])
    out = extract_interactions(t)
    assert [i.is_self for i in out] == [True, False]


def test_roundtrip_hand_fixture(tmp_path):
    corpus = make_corpus(
        make_tweet(
            "t1",
            "u1",
            hashtags=["#One", "two"],
            text="hello éè world\nsecond line",
            retweeted="u2",
            reply_to="u3",
            mentions=["u2", "u4"],
            screen_name="me",
            timestamp=datetime(2018, 12, 1, 12, 30, tzinfo=timezone.utc),
        ),
        make_tweet("t2", "u2", text="plain"),
    )
    path = tmp_path / "out.jsonl"
    dump_corpus(corpus, path)
    assert load_corpus(path, strict=True) == corpus


record_strategy = st.builds(
    make_tweet,
    tweet_id=st.uuids().map(str),
    user_id=st.text(alphabet="abcdef", min_size=1, max_size=4),
    hashtags=st.lists(st.text(alphabet="xyz#", min_size=1, max_size=5), max_size=4),
    text=st.text(max_size=60),
    retweeted=st.none() | st.text(alphabet="uvw", min_size=1, max_size=3),
    reply_to=st.none() | st.text(alphabet="uvw", min_size=1, max_size=3),
    mentions=st.lists(st.text(alphabet="uvw", min_size=1, max_size=3), max_size=3),
    screen_name=st.text(alphabet="mn", max_size=3),
    timestamp=st.none() | st.datetimes(timezones=st.just(timezone.utc)),
)


@given(st.lists(record_strategy, max_size=12, unique_by=lambda t: t.tweet_id))
def test_roundtrip_property(tmp_path_factory, records):
    corpus = make_corpus(*records)
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    dump_corpus(corpus, path)
    assert load_corpus(path, strict=True) == corpus


@given(st.lists(record_strategy, max_size=12, unique_by=lambda t: t.tweet_id))
def test_digest_is_the_hash_of_the_dumped_bytes(tmp_path_factory, records):
    corpus = make_corpus(*records)
    path = tmp_path_factory.mktemp("digest") / "c.jsonl"
    dump_corpus(corpus, path)
    assert corpus.digest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_indices_match_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(20):
        corpus = random_corpus(rng, n_tweets=int(rng.integers(0, 60)))
        users = {}
        usage = {}
        for t in corpus.tweets:
            users.setdefault(t.user_id, set()).add(t.tweet_id)
            for h in t.hashtags:
                usage[(t.user_id, h)] = usage.get((t.user_id, h), 0) + 1
        assert corpus.users == users
        assert corpus.hashtag_usage == usage
        by_id = {t.tweet_id: t for t in corpus.tweets}
        for user_id, ids in corpus.users.items():
            assert all(by_id[i].user_id == user_id for i in ids)


def test_usage_counts_duplicates_within_tweet():
    corpus = make_corpus(make_tweet("t1", "u1", hashtags=["a", "a", "b"]))
    assert corpus.hashtag_usage == {("u1", "a"): 2, ("u1", "b"): 1}


def test_hashtag_counts_exclude_retweets():
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["a"]),
        make_tweet("t2", "u1", hashtags=["a", "b"], retweeted="u2"),
    )
    assert corpus.hashtag_counts("u1") == {"a": 2, "b": 1}
    assert corpus.hashtag_counts("u1", include_retweets=False) == {"a": 1}
    with pytest.raises(KeyError):
        corpus.hashtag_counts("nobody")


def test_digest_tracks_content():
    c1 = make_corpus(make_tweet("t1", "u1", text="x"))
    c2 = make_corpus(make_tweet("t1", "u1", text="x"))
    c3 = make_corpus(make_tweet("t1", "u1", text="y"))
    assert c1.digest() == c2.digest()
    assert c1.digest() != c3.digest()


def test_record_to_dict_omits_empty_optionals():
    obj = record_to_dict(make_tweet("t1", "u1", text="x"))
    assert set(obj) == {"tweet_id", "user_id", "text", "hashtags"}


def test_blank_lines_are_ignored(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        ['{"tweet_id":"1","user_id":"u1","text":"a","hashtags":[]}', "", "   "],
    )
    corpus = load_corpus(path, strict=True)
    assert len(corpus) == 1
    assert corpus.skipped_count == 0
