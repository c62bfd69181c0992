import json
from dataclasses import FrozenInstanceError
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from stancelab.corpus import (
    Corpus,
    CorpusFormatError,
    InteractionKind,
    TweetRecord,
    dump_corpus,
    extract_interactions,
    load_corpus,
    normalize_hashtag,
)
from util import (
    ESCAPED_CHARS,
    make_corpus,
    make_tweet,
    oracle_corpus_bytes,
    oracle_hashtag_counts,
    oracle_load_corpus,
    random_corpus,
    record_to_dict,
)

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


odd_text = st.text(alphabet=st.sampled_from(ESCAPED_CHARS), max_size=4)
odd_record = st.builds(
    TweetRecord,
    tweet_id=odd_text,
    user_id=odd_text,
    text=odd_text | st.text(max_size=12),
    hashtags=st.lists(odd_text, max_size=3).map(tuple),
    screen_name=odd_text,
    retweeted_user_id=st.none() | odd_text,
    in_reply_to_user_id=st.none() | odd_text,
    mentioned_user_ids=st.lists(odd_text, max_size=3).map(tuple),
    timestamp=st.none()
    | st.datetimes(
        timezones=st.none()
        | st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23), max_value=timedelta(hours=23)))
    ),
)
_EVERY_FIELD = TweetRecord(
    "t\u00e9", "u\"1", "a\\b\x00\u2028", ("x", "y"), "me", "u2", "u3", ("u4",), datetime(2018, 12, 1, 12, 30, 5, 7)
)


@given(st.lists(odd_record, max_size=6))
@example([_EVERY_FIELD, TweetRecord("1", "u", "")])
def test_dump_writes_the_bytes_of_jsonl_line_per_record_dict(tmp_path_factory, records):
    corpus = make_corpus(*records)
    path = tmp_path_factory.mktemp("dump") / "c.jsonl"
    dump_corpus(corpus, path)
    assert path.read_bytes() == oracle_corpus_bytes(corpus)


# JSON values of every kind, to put where a field or a hashtag belongs.
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(alphabet="ab #Z", max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(["k", "text"]), inner, max_size=2),
    max_leaves=4,
)
raw_tag = st.text(alphabet="aZ# \u00e9\u0130", max_size=4) | json_value


@st.composite
def corpus_line(draw) -> str:
    """One line a corpus file might hold: a record, a record with fields
    dropped or replaced by other JSON, some other JSON value, or not JSON."""
    kind = draw(st.sampled_from(["record", "record", "record", "value", "text", "blank"]))
    if kind == "value":
        return json.dumps(draw(json_value))
    if kind == "text":
        return draw(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    obj = record_to_dict(draw(record_strategy))
    obj["tweet_id"] = draw(st.sampled_from(["1", "2", "3", ""]))  # repeats and an empty id
    obj["hashtags"] = draw(st.lists(raw_tag, max_size=3))
    keys = sorted({*obj, "screen_name", "retweeted_user_id", "in_reply_to_user_id", "mentioned_user_ids", "timestamp"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(json_value)
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans()))
    return draw(st.sampled_from(["", " ", "\ufeff"])) + line + draw(st.sampled_from(["", " ", "\t", " x", "{}"]))


def load_outcome(load, path, strict):
    try:
        corpus = load(path, strict=strict)
    except CorpusFormatError as exc:
        return f"CorpusFormatError: {exc}"
    return repr(corpus.tweets), corpus.skipped_count, corpus.duplicate_count


@settings(max_examples=300)
@given(st.lists(corpus_line(), max_size=8), st.booleans())
def test_load_matches_the_line_by_line_oracle(tmp_path_factory, lines, strict):
    """Same records, counts and error message as ``json.loads`` and
    ``isinstance`` checks on every line."""
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))
    assert load_outcome(load_corpus, path, strict) == load_outcome(oracle_load_corpus, path, strict)


def test_records_stay_frozen():
    record = make_tweet("t1", "u1")
    with pytest.raises(FrozenInstanceError):
        record.text = "changed"


def test_loaded_records_are_the_records_the_constructor_makes(tmp_path):
    """A record filled through its slots is frozen, and equal, hashed and
    shown as the same record built by ``TweetRecord(...)``."""
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["a"], text="x", retweeted="u2", reply_to="u3", mentions=["u4"],
                   screen_name="me", timestamp=datetime(2018, 12, 3, tzinfo=timezone.utc)),
        make_tweet("t2", "u2"),
    )
    dump_corpus(corpus, tmp_path / "c.jsonl")
    for loaded, built in zip(load_corpus(tmp_path / "c.jsonl", strict=True).tweets, corpus.tweets, strict=True):
        assert type(loaded) is TweetRecord
        assert loaded == built and hash(loaded) == hash(built) and repr(loaded) == repr(built)
        with pytest.raises(FrozenInstanceError):
            loaded.text = "changed"


def test_indices_match_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(20):
        corpus = random_corpus(rng, n_tweets=int(rng.integers(0, 60)))
        users = {}
        for t in corpus.tweets:
            users.setdefault(t.user_id, []).append(t)
        assert list(corpus.users) == list(users)
        assert corpus.users == users


def test_usage_counts_duplicates_within_tweet():
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["a", "a", "b"]),
        make_tweet("t2", "u2", hashtags=["a"]),
    )
    assert corpus.hashtag_counts("u1") == {"a": 2, "b": 1}


@given(
    st.lists(record_strategy, max_size=20, unique_by=lambda t: t.tweet_id),
    st.booleans(),
)
def test_hashtag_counts_match_full_scan(records, include_retweets):
    corpus = make_corpus(*records)
    for user_id in corpus.users:
        expected = oracle_hashtag_counts(corpus, user_id, include_retweets)
        assert corpus.hashtag_counts(user_id, include_retweets) == expected


def test_hashtag_counts_exclude_retweets():
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["a"]),
        make_tweet("t2", "u1", hashtags=["a", "b"], retweeted="u2"),
    )
    assert corpus.hashtag_counts("u1") == {"a": 2, "b": 1}
    assert corpus.hashtag_counts("u1", include_retweets=False) == {"a": 1}
    with pytest.raises(KeyError):
        corpus.hashtag_counts("nobody")



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
