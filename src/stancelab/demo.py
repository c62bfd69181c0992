"""Small synthetic input set for demos and end-to-end tests.

Twenty tweets from nine accounts split across two camps (plus two
unclassified users), with retweets, replies, mentions (one self-mention),
two seed hashtags, bot scores, and account types.  Everything is literal
data, so repeated generation is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from .fileio import write_csv, write_jsonl, write_text

__all__ = ["write_demo_inputs", "write_demo_config", "DEMO_TWEETS"]

# (tweet_id, user_id, screen_name, text, hashtags, retweeted, reply_to, mentions, timestamp)
DEMO_TWEETS = [
    ("t01", "d1", "SkepticSam", "Numbers do not add up, total #Hoax scam", ["Hoax"], None, None, [], "2018-12-03T09:00:00+00:00"),
    ("t02", "d1", "SkepticSam", "#Hoax and #Fraud everywhere, wake up sheeple", ["Hoax", "Fraud"], None, None, ["d1"], "2018-12-03T10:15:00+00:00"),
    ("t03", "d1", "SkepticSam", "Watching the #Summit circus, pure #Hoax theatre", ["Summit", "Hoax"], None, None, ["b1"], "2018-12-04T08:30:00+00:00"),
    ("t04", "d1", "SkepticSam", "The #Fraud continues, #WakeUp and read the leaked memo", ["Fraud", "WakeUp"], "nd1", None, [], "2018-12-04T12:00:00+00:00"),
    ("t05", "d2", "DoubtDora", "Cannot believe anyone buys this #Hoax scam", ["Hoax"], "d1", None, [], "2018-12-04T13:45:00+00:00"),
    ("t06", "d2", "DoubtDora", "#WakeUp people, fake numbers again", ["WakeUp"], None, None, ["d1"], "2018-12-05T09:10:00+00:00"),
    ("t07", "d1", "SkepticSam", "exactly right, the memo proves the scam", [], None, "d2", ["d2"], "2018-12-05T09:30:00+00:00"),
    ("t08", "d2", "DoubtDora", "big scam, fake numbers in every report #Hoax", ["Hoax"], "nd1", None, [], "2018-12-05T11:00:00+00:00"),
    ("t09", "nd1", "PatriotWire", "BREAKING: leaked memo exposes the #Hoax #Fraud machine", ["Hoax", "Fraud"], None, None, [], "2018-12-05T07:00:00+00:00"),
    ("t10", "nd1", "PatriotWire", "EXCLUSIVE: the scandal deepens, insiders admit #Hoax", ["Hoax"], None, None, [], "2018-12-06T07:00:00+00:00"),
    ("t11", "b1", "GreenGreta", "Time for real #Action now, our planet cannot wait", ["Action"], None, None, [], "2018-12-03T09:05:00+00:00"),
    ("t12", "b1", "GreenGreta", "Invest in #Renewables today #Action", ["Action", "Renewables"], "b2", None, [], "2018-12-04T10:00:00+00:00"),
    ("t13", "b2", "SolarSami", "Our #Future depends on bold #Action this decade", ["Action", "Future"], "b1", None, [], "2018-12-04T11:20:00+00:00"),
    ("t14", "b2", "SolarSami", "Join the #Action march tomorrow", ["Action"], "b1", None, [], "2018-12-05T08:00:00+00:00"),
    ("t15", "b3", "WindyWill", "Solar and wind are winning #Renewables", ["Renewables"], None, "b1", ["b1", "b2"], "2018-12-05T14:30:00+00:00"),
    ("t16", "b3", "WindyWill", "#Summit delegates demand stronger #Action targets", ["Action", "Summit"], None, None, [], "2018-12-06T10:00:00+00:00"),
    ("t17", "b1", "GreenGreta", "Live from the #Summit, leaders pledge real #Action", ["Summit", "Action"], None, None, [], "2018-12-06T12:00:00+00:00"),
    ("t18", "nb1", "DailyPlanet", "Report: nations pledge new funding for #Action plans", ["Action"], None, None, [], "2018-12-06T13:00:00+00:00"),
    ("t19", "u1", "CuriousCat", "interesting times for everyone watching this debate", [], None, None, ["b1"], "2018-12-06T15:00:00+00:00"),
    ("t20", "u2", "SunnySue", "such nice #Weather on the coast today", ["Weather"], None, None, [], "2018-12-07T09:00:00+00:00"),
]

DEMO_SEEDS = [("hoax", -1), ("action", 1)]

DEMO_BOT_SCORES = [
    ("d1", 0.9),
    ("d2", 0.5),
    ("b1", 0.2),
    ("b2", 0.7),
    ("b3", 0.4),
    ("nd1", 0.95),
    ("nb1", 0.1),
    ("u1", 0.5),
]

DEMO_ACCOUNT_TYPES = [
    ("nd1", "news"),
    ("nb1", "news"),
    ("d1", "other"),
    ("b1", "other"),
]


def write_demo_inputs(dest: str | Path) -> dict[str, Path]:
    """Write corpus.jsonl, seeds.csv, bot_scores.csv, account_types.csv."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": dest / "corpus.jsonl",
        "seeds": dest / "seeds.csv",
        "bot_scores": dest / "bot_scores.csv",
        "account_types": dest / "account_types.csv",
    }

    tweets = []
    for tweet_id, user_id, name, text, tags, retweeted, reply_to, mentions, ts in DEMO_TWEETS:
        obj: dict = {
            "tweet_id": tweet_id,
            "user_id": user_id,
            "screen_name": name,
            "text": text,
            "hashtags": tags,
            "timestamp": ts,
        }
        if retweeted:
            obj["retweeted_user_id"] = retweeted
        if reply_to:
            obj["in_reply_to_user_id"] = reply_to
        if mentions:
            obj["mentioned_user_ids"] = mentions
        tweets.append(obj)
    write_jsonl(paths["corpus"], tweets)
    write_csv(paths["seeds"], ("hashtag", "label"), DEMO_SEEDS)
    write_csv(paths["bot_scores"], ("user_id", "probability"), DEMO_BOT_SCORES)
    write_csv(paths["account_types"], ("user_id", "type"), DEMO_ACCOUNT_TYPES)

    return paths


def write_demo_config(dest: str | Path, output_dir: str | Path | None = None) -> Path:
    """Write demo inputs plus a ready-to-run config file; returns its path.

    The config names the inputs relative to its own directory, as the config
    parser resolves them.  ``output_dir`` defaults to ``dest/report``; a
    relative one is taken against the working directory.
    """
    dest = Path(dest)
    paths = write_demo_inputs(dest)
    out = Path(output_dir).resolve() if output_dir is not None else "report"
    config = "\n".join(
        [
            f"corpus_path = {paths['corpus'].name}",
            f"seed_file = {paths['seeds'].name}",
            f"bot_scores_path = {paths['bot_scores'].name}",
            f"account_types_path = {paths['account_types'].name}",
            f"output_dir = {out}",
            "gamma = 1",
            "lda_topics = 3",
            "lda_iterations = 120",
            "rng_seed = 7",
            "top_n_words = 8",
            "export_formats = csv,gexf,dot",
        ]
    )
    config_path = dest / "config.cfg"
    write_text(config_path, config + "\n")
    return config_path
