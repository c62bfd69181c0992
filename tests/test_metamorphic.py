"""Whole-bundle metamorphic relations on the demo bundle.

Each relation transforms the demo inputs, builds a second bundle with
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
  every file equals its counterpart once the prefix is removed.

Negation is exact in IEEE arithmetic, through sums and weighted averages,
so the flipped values are compared with ``==``.
"""

import csv
import io
import json
import random
import re
from dataclasses import replace

import pytest

from stancelab.demo import DEMO_SEEDS, write_demo_config
from stancelab.fileio import read_csv, write_csv
from stancelab.pipeline import PipelineConfig, run_pipeline

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


def test_seed_sign_flip_swaps_the_camps(demo):
    base, cfg, _, bundle = demo
    seeds = base / "negated_seeds.csv"
    write_csv(seeds, ("hashtag", "label"), [(tag, -label) for tag, label in DEMO_SEEDS])
    flipped = build(cfg, base / "flipped", seed_file=seeds)
    assert sorted(map(swap, bundle)) == sorted(flipped)
    assert "believer" in bundle["stance.csv"] and "disbeliever" in bundle["stance.csv"]
    for name, text in bundle.items():
        got = flipped[swap(name)]
        if name in NEGATED:
            col = NEGATED[name]
            want, have = rows(name, swap(text)), rows(name, got)
            assert len(want) == len(have) > 1, name
            assert want[0] == have[0], name
            for w, h in zip(want[1:], have[1:]):
                assert w[:col] + w[col + 1 :] == h[:col] + h[col + 1 :], name
                assert (w[col] == h[col] == "") or float(h[col]) == -float(w[col]), (name, w, h)
        elif name in REORDERED:
            assert sorted_rows(name, got) == sorted_rows(name, swap(text)), name
        else:
            assert got == swap(text), name


def test_prefixing_every_user_id_renames_it_in_every_file(demo):
    base, cfg, lines, bundle = demo
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
    assert prefix in renamed["stance.csv"] and prefix in renamed["networks/mention.json"]
    for name, text in bundle.items():
        assert renamed[name].replace(prefix, "") == text, name


@pytest.mark.parametrize("shuffle_seed", range(5))
def test_corpus_line_order_changes_only_the_corpus_and_topics(demo, shuffle_seed):
    base, cfg, lines, bundle = demo
    shuffled_lines = list(lines)
    random.Random(shuffle_seed).shuffle(shuffled_lines)
    assert shuffled_lines != lines
    corpus = base / f"shuffled_{shuffle_seed}.jsonl"
    corpus.write_text("".join(shuffled_lines), encoding="utf-8")
    shuffled = build(cfg, base / f"shuffled_{shuffle_seed}", corpus_path=corpus)
    assert sorted(shuffled) == sorted(bundle)
    changed = sorted(name for name in bundle if shuffled[name] != bundle[name])
    assert set(changed) <= set(ORDER_DEPENDENT)
    assert sorted(shuffled["corpus.jsonl"].splitlines()) == sorted(bundle["corpus.jsonl"].splitlines())
