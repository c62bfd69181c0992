import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancelab.annotations import (
    BotScoreTable,
    bot_threshold_sweep,
    classify_bots,
    load_account_types,
    load_bot_scores,
    news_source_concentration,
    write_concentration_json,
    write_sweep_csv,
)
from stancelab.stance import Stance, StanceRow, StanceTable, classify_users
from util import make_corpus, make_tweet, oracle_bot_threshold_sweep


class TestLoadBotScores:
    def test_single_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("u1,0.9\n", encoding="utf-8")
        assert load_bot_scores(path).scores == {"u1": 0.9}

    def test_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("u1,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_bot_scores(path)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("user_id,probability\n", encoding="utf-8")
        assert load_bot_scores(path).scores == {}

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("user_id,probability\nu1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_bot_scores(path)

    def test_non_numeric_probability(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("user_id,probability\nu1,high\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_bot_scores(path)


class TestLoadAccountTypes:
    def test_ok(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("user_id,type\nu1,news\nu2,other\n", encoding="utf-8")
        assert load_account_types(path) == {"u1": "news", "u2": "other"}

    def test_unknown_type(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("user_id,type\nu1,celebrity\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_account_types(path)


class TestClassifyBots:
    SCORES = BotScoreTable(scores={"a": 0.2, "b": 0.5, "c": 0.9})

    def test_strictly_greater_than(self):
        assert classify_bots(self.SCORES, 0.5) == {"c"}

    def test_threshold_zero(self):
        assert classify_bots(self.SCORES, 0.0) == {"a", "b", "c"}
        with_zero = BotScoreTable(scores={"z": 0.0, "p": 0.1})
        assert classify_bots(with_zero, 0.0) == {"p"}

    def test_threshold_one(self):
        assert classify_bots(self.SCORES, 1.0) == set()

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            classify_bots(self.SCORES, 1.5)

    @given(
        st.dictionaries(st.text("ab", min_size=1, max_size=3), st.floats(0, 1), max_size=8),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_monotone_in_threshold(self, scores, t1, t2):
        table = BotScoreTable(scores=scores)
        low, high = min(t1, t2), max(t1, t2)
        assert classify_bots(table, low) >= classify_bots(table, high)


def sweep_fixture():
    # one believer group of 4 accounts with known scores, one disbeliever
    tweets = [make_tweet(f"b{i}", f"ub{i}", hashtags=["pos"]) for i in range(4)]
    tweets += [make_tweet("b_extra", "ub0", hashtags=["pos"])]
    tweets += [make_tweet("d0", "ud0", hashtags=["neg"])]
    corpus = make_corpus(*tweets)
    table = classify_users(corpus, {"pos": 1.0, "neg": -1.0})
    scores = BotScoreTable(scores={"ub0": 0.2, "ub1": 0.4, "ub2": 0.6, "ub3": 0.8, "ud0": 0.9})
    return corpus, table, scores


class TestSweep:
    def test_account_fraction_at_half(self):
        corpus, table, scores = sweep_fixture()
        rows = bot_threshold_sweep(corpus, table, scores, [0.5])
        by_group = {r.group: r for r in rows}
        assert by_group["believer"].account_fraction == 0.5
        # ub2 and ub3 author 1 tweet each of the 5 believer tweets
        assert by_group["believer"].tweet_fraction == 2 / 5
        assert by_group["disbeliever"].account_fraction == 1.0

    def test_fractions_weakly_decreasing(self):
        corpus, table, scores = sweep_fixture()
        rows = bot_threshold_sweep(corpus, table, scores, [0.0, 0.5, 1.0])
        for group in ("believer", "disbeliever", "unclassified"):
            fractions = [r.account_fraction for r in rows if r.group == group]
            assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_grid_endpoints(self):
        corpus, table, scores = sweep_fixture()
        scores.scores["ub0"] = 0.0  # zero-score account is never bot-like
        rows = bot_threshold_sweep(corpus, table, scores, [0.0, 1.0])
        believer = [r for r in rows if r.group == "believer"]
        assert believer[0].account_fraction == 3 / 4
        assert believer[-1].account_fraction == 0.0

    def test_group_without_scores(self):
        corpus = make_corpus(make_tweet("t1", "u1", hashtags=["pos"]))
        table = classify_users(corpus, {"pos": 1.0})
        rows = bot_threshold_sweep(corpus, table, BotScoreTable(scores={}), [0.5])
        believer = next(r for r in rows if r.group == "believer")
        assert believer.account_fraction == 0.0
        assert believer.unscored_count == 1

    def test_rows_ordered_by_threshold_then_group(self):
        corpus, table, scores = sweep_fixture()
        rows = bot_threshold_sweep(corpus, table, scores, [0.0, 0.5])
        keys = [(r.threshold, r.group) for r in rows]
        assert keys == sorted(keys)

    def test_include_global_group(self):
        corpus, table, scores = sweep_fixture()
        rows = bot_threshold_sweep(corpus, table, scores, [0.5], include_global=True)
        all_row = next(r for r in rows if r.group == "all")
        assert all_row.account_fraction == 3 / 5

    def test_grid_validation(self):
        corpus, table, scores = sweep_fixture()
        with pytest.raises(ValueError, match="ascending"):
            bot_threshold_sweep(corpus, table, scores, [0.5, 0.1])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bot_threshold_sweep(corpus, table, scores, [-0.1])

    def test_csv_schema(self, tmp_path):
        corpus, table, scores = sweep_fixture()
        rows = bot_threshold_sweep(corpus, table, scores, [0.0, 1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,group,account_fraction,tweet_fraction,unscored_count"
        assert len(lines) == 1 + len(rows)


def concentration_fixture(news_tweets_by_account):
    tweets = []
    types = {}
    for account, n in news_tweets_by_account.items():
        types[account] = "news"
        for i in range(n):
            tweets.append(make_tweet(f"{account}_{i}", account, hashtags=["pos"]))
    tweets.append(make_tweet("plain", "regular", hashtags=["pos"]))
    corpus = make_corpus(*tweets)
    table = classify_users(corpus, {"pos": 1.0})
    return corpus, table, types


class TestNewsConcentration:
    def report_for(self, news_tweets_by_account, group="believer"):
        corpus, table, types = concentration_fixture(news_tweets_by_account)
        reports = news_source_concentration(corpus, table, types)
        return next(r for r in reports if r.group == group)

    def test_single_dominating_source(self):
        report = self.report_for({"newsy": 10})
        assert report.top_share == 1.0
        assert report.herfindahl == 1.0
        assert report.news_tweet_count == 10
        assert report.news_tweet_share == 10 / 11

    def test_even_split(self):
        report = self.report_for({"news_a": 5, "news_b": 5})
        assert report.herfindahl == 0.5
        assert report.top_share == 0.5

    def test_no_news_accounts(self):
        report = self.report_for({})
        assert report.accounts == []
        assert report.top_share == 0.0
        assert report.herfindahl == 0.0
        assert report.news_tweet_share == 0.0

    def test_herfindahl_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            counts = {f"n{i}": int(rng.integers(1, 9)) for i in range(m)}
            report = self.report_for(counts)
            assert 1 / m - 1e-12 <= report.herfindahl <= 1.0 + 1e-12

    def test_json_writer(self, tmp_path):
        corpus, table, types = concentration_fixture({"newsy": 3})
        path = tmp_path / "conc.json"
        write_concentration_json(news_source_concentration(corpus, table, types), path)
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        groups = [entry["group"] for entry in payload]
        assert groups == sorted(groups)
        believer = next(e for e in payload if e["group"] == "believer")
        assert believer["accounts"][0]["tweet_count"] == 3


@given(
    authors=st.lists(st.integers(0, 7), min_size=1, max_size=30),
    stances=st.lists(st.sampled_from(Stance), min_size=8, max_size=8),
    classified=st.sets(st.integers(0, 9)),
    scored=st.dictionaries(st.integers(0, 9), st.sampled_from((0.0, 0.25, 0.5, 0.5, 0.75, 1.0)) | st.floats(0.0, 1.0)),
    grid=st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)) | st.floats(0.0, 1.0), max_size=6).map(sorted),
    include_global=st.booleans(),
)
def test_sweep_matches_the_per_threshold_loop(authors, stances, classified, scored, grid, include_global):
    """Tied scores, scores on the grid, unscored members, scored users who
    never tweeted and stance rows for users who never tweeted."""
    corpus = make_corpus(*(make_tweet(f"t{i}", f"u{a}") for i, a in enumerate(authors)))
    table = StanceTable(rows={f"u{u}": StanceRow(f"u{u}", None, stances[u % 8], 0) for u in classified})
    scores = BotScoreTable(scores={f"u{u}": p for u, p in scored.items()})
    rows = bot_threshold_sweep(corpus, table, scores, grid, include_global=include_global)
    assert rows == oracle_bot_threshold_sweep(corpus, table, scores, grid, include_global=include_global)
