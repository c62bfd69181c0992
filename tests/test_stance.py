import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab.stance import (
    Stance,
    classify_users,
    read_stance_csv,
    stance_from_polarity,
    user_polarity,
    write_stance_csv,
)
from util import make_corpus, make_tweet, random_corpus


def three_user_corpus():
    return make_corpus(
        make_tweet("t1", "u_d", hashtags=["h1"]),
        make_tweet("t2", "u_d", hashtags=["h1"]),
        make_tweet("t3", "u_d", hashtags=["h2"]),
        make_tweet("t4", "u_x", hashtags=["plain"]),
        make_tweet("t5", "u_b", hashtags=["h3"]),
    )


LABELS = {"h1": 1 / 3, "h2": -1.0, "h3": 1.0}


def test_worked_polarity_example():
    corpus = three_user_corpus()
    polarity = user_polarity(corpus, LABELS, "u_d")
    assert polarity == (2 * (1 / 3) + 1 * (-1)) / 3
    assert abs(polarity - (-1 / 9)) < 1e-12
    assert stance_from_polarity(polarity) is Stance.DISBELIEVER


def test_unlabeled_only_is_unclassified():
    corpus = three_user_corpus()
    assert user_polarity(corpus, LABELS, "u_x") is None
    assert stance_from_polarity(None) is Stance.UNCLASSIFIED


def test_single_positive_hashtag():
    corpus = three_user_corpus()
    assert user_polarity(corpus, LABELS, "u_b") == 1.0
    assert stance_from_polarity(1.0) is Stance.BELIEVER


def test_unknown_user_raises():
    with pytest.raises(KeyError):
        user_polarity(three_user_corpus(), LABELS, "ghost")


def test_exact_zero_is_unclassified():
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["p"]),
        make_tweet("t2", "u1", hashtags=["n"]),
    )
    polarity = user_polarity(corpus, {"p": 1.0, "n": -1.0}, "u1")
    assert polarity == 0.0
    assert stance_from_polarity(polarity) is Stance.UNCLASSIFIED


def test_classify_users_composition():
    table = classify_users(three_user_corpus(), LABELS)
    assert table.counts() == {Stance.DISBELIEVER: 1, Stance.BELIEVER: 1, Stance.UNCLASSIFIED: 1}
    assert table.rows["u_d"].hashtag_count == 3


def test_classify_empty_corpus():
    assert classify_users(make_corpus(), LABELS).rows == {}


def test_all_users_share_positive_hashtag():
    corpus = make_corpus(*(make_tweet(f"t{i}", f"u{i}", hashtags=["h3"]) for i in range(5)))
    table = classify_users(corpus, LABELS)
    assert all(row.stance is Stance.BELIEVER for row in table.rows.values())


@given(st.integers(0, 2**32 - 1))
def test_partition_property(seed):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, n_tweets=int(rng.integers(0, 40)))
    labels = {f"tag{i}": float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])) for i in range(4)}
    table = classify_users(corpus, labels)
    counts = table.counts()
    assert sum(counts.values()) == corpus.n_users


def test_duplicating_tweets_preserves_polarity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        corpus = random_corpus(rng, n_tweets=30)
        labels = {f"tag{i}": float(rng.uniform(-1, 1)) for i in range(6)}
        doubled = make_corpus(
            *corpus.tweets,
            *(
                make_tweet(
                    t.tweet_id + "_copy",
                    t.user_id,
                    hashtags=t.hashtags,
                    retweeted=t.retweeted_user_id,
                    reply_to=t.in_reply_to_user_id,
                    mentions=t.mentioned_user_ids,
                )
                for t in corpus.tweets
            ),
        )
        for user in corpus.users:
            assert user_polarity(doubled, labels, user) == user_polarity(corpus, labels, user)


def test_polarity_within_used_label_range():
    rng = np.random.default_rng(6)
    for _ in range(50):
        corpus = random_corpus(rng, n_tweets=25)
        labels = {f"tag{i}": float(rng.uniform(-1, 1)) for i in range(6)}
        for user in corpus.users:
            polarity = user_polarity(corpus, labels, user)
            if polarity is None:
                continue
            used = [
                labels[h]
                for h in corpus.hashtag_counts(user)
                if h in labels
            ]
            assert min(used) <= polarity <= max(used)


def test_presence_weighting_flag():
    corpus = make_corpus(
        make_tweet("t1", "u1", hashtags=["p", "p", "p"]),
        make_tweet("t2", "u1", hashtags=["n"]),
    )
    labels = {"p": 1.0, "n": -1.0}
    assert user_polarity(corpus, labels, "u1") == 0.5
    assert user_polarity(corpus, labels, "u1", count_weighting=False) == 0.0
    table = classify_users(corpus, labels, count_weighting=False)
    assert table.rows["u1"].stance is Stance.UNCLASSIFIED
    assert table.rows["u1"].hashtag_count == 2


def test_retweet_hashtag_flag():
    corpus = make_corpus(make_tweet("t1", "u1", hashtags=["p"], retweeted="u2"))
    labels = {"p": 1.0}
    assert user_polarity(corpus, labels, "u1") == 1.0
    assert user_polarity(corpus, labels, "u1", include_retweet_hashtags=False) is None


def test_stance_csv_roundtrip(tmp_path):
    table = classify_users(three_user_corpus(), LABELS)
    path = tmp_path / "stance.csv"
    write_stance_csv(table, path)
    loaded = read_stance_csv(path)
    assert loaded.rows == table.rows


class _CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_classification_reads_each_author_only():
    corpus = random_corpus(np.random.default_rng(7), n_tweets=200, n_users=20)
    corpus.tweets = _CountingList(corpus.tweets)
    table = classify_users(corpus, {f"tag{i}": 1.0 - i / 3 for i in range(6)})
    assert len(table) == corpus.n_users
    assert corpus.tweets.iterations == 0
