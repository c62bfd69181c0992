"""What each config field changes: flipping one field on the demo config
changes bundle files, and the earliest of them is written by the stage that
reads the field (``util.oracle_config_readers``)."""

from dataclasses import fields, replace

import pytest

from stancelab.demo import write_demo_config
from stancelab.fileio import jsonl_line
from stancelab.pipeline import STAGE_ORDER, PipelineConfig, StageError, bundle_files, run_pipeline
from util import digest_tree, oracle_config_readers

_REQUIRED = {"corpus_path", "seed_file", "bot_scores_path", "account_types_path", "output_dir"}

# A value for each field that differs from the demo config's.
_FLIPS = {
    "strict_ingest": "true",
    "min_cooccurrence": "2",
    "gamma": "100",
    "max_passes": "1",
    "unlabeled_as_zero": "true",
    "presence_weighting": "true",
    "include_retweet_hashtags": "false",
    "include_retweet_mentions": "false",
    "reciprocal_base": "retweet",
    "export_formats": "csv",
    "top_k": "1",
    "lda_topics": "2",
    "lda_alpha": "0.5",
    "lda_beta": "0.1",
    "lda_iterations": "5",
    "lda_pool_by_user": "true",
    "rng_seed": "8",
    "stopword_file": "stopwords.txt",
    "topics_include_hashtags": "false",
    "topics_exclude_hashtags_in_report": "true",
    "frequencies_include_hashtags": "true",
    "top_n_words": "3",
    "sweep_grid": "0.5",
    "sweep_include_global": "true",
}

# The demo corpus has neither a malformed line nor a retweet that carries a
# mention, so without one of these the field would change nothing.
_EXTRA_CORPUS_LINE = {
    "strict_ingest": "{not json\n",
    "include_retweet_mentions": jsonl_line(
        {"tweet_id": "t99", "user_id": "b3", "text": "RT #Action", "hashtags": ["Action"],
         "retweeted_user_id": "b1", "mentioned_user_ids": ["d2"]}
    ),
}  # fmt: skip


def test_every_optional_field_has_a_reader_and_a_flip():
    assert set(oracle_config_readers()) == {f.name for f in fields(PipelineConfig)} - _REQUIRED
    assert set(oracle_config_readers()) == set(_FLIPS)
    assert set(oracle_config_readers().values()) <= set(STAGE_ORDER)


@pytest.mark.parametrize("name", sorted(_FLIPS))
def test_flipping_a_field_changes_only_its_readers_files(name, tmp_path):
    inputs = tmp_path / "inputs"
    cfg = PipelineConfig.from_file(write_demo_config(inputs, output_dir=tmp_path / "before"))
    (inputs / "stopwords.txt").write_text("scam\n", encoding="utf-8")
    with open(cfg.corpus_path, "a", encoding="utf-8") as fh:
        fh.write(_EXTRA_CORPUS_LINE.get(name, ""))
    value = PipelineConfig.parse_value(name, _FLIPS[name], inputs)
    assert value != getattr(cfg, name)
    flipped = replace(cfg, output_dir=tmp_path / "after", **{name: value})
    reader = oracle_config_readers()[name]

    before = digest_tree(run_pipeline(cfg))
    if name == "strict_ingest":  # a malformed line is skipped, or stops a strict ingest
        with pytest.raises(StageError) as info:
            run_pipeline(flipped)
        assert info.value.stage == reader
        return
    after = digest_tree(run_pipeline(flipped))

    producers = {**bundle_files(cfg), **bundle_files(flipped)}
    changed = {rel for rel in before.keys() | after.keys() if before.get(rel) != after.get(rel)}
    assert changed
    assert min(STAGE_ORDER.index(producers[rel]) for rel in changed) == STAGE_ORDER.index(reader), sorted(changed)
