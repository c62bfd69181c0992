"""The stage table in stancelab.pipeline and what is derived from it: the
bundle file list, each intermediate's producer and last reader, the values
``run_pipeline`` keeps between stages, and the stage list in the README."""

import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stancelab.pipeline as pipeline
from stancelab.demo import write_demo_config
from stancelab.pipeline import STAGE_ORDER, PipelineConfig, StageError, bundle_files, run_pipeline, run_stage

from util import oracle_bundle_files, oracle_last_readers, oracle_producers


@pytest.fixture()
def demo_cfg(tmp_path):
    return PipelineConfig.from_file(write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out"))


_REQUIRED_PATHS = dict.fromkeys(("corpus_path", "seed_file", "bot_scores_path", "account_types_path", "output_dir"), Path("x"))


@given(st.lists(st.sampled_from(("csv", "gexf", "dot")), unique=True).map(tuple))
def test_bundle_files_equal_the_hand_list(formats):
    cfg = PipelineConfig(**_REQUIRED_PATHS, export_formats=formats)
    assert bundle_files(cfg) == oracle_bundle_files(formats)


def test_producers_and_last_readers_equal_the_hand_table():
    assert pipeline._PRODUCER == oracle_producers()
    # The reply network is written to the bundle, but no stage reads it.
    assert pipeline._LAST_READER == {n: s for n, s in oracle_last_readers().items() if n != "reply"}


@pytest.mark.parametrize("name", sorted(oracle_producers()))
def test_missing_intermediate_names_its_producer(name, tmp_path):
    with pytest.raises(StageError, match=f"run the {oracle_producers()[name]} stage first"):
        pipeline._Bundle(tmp_path, keep=False).get(name)


def test_each_stage_does_what_it_declares(demo_cfg, monkeypatch):
    """Under ``run_stage``, each stage gets exactly its declared reads, puts
    exactly its declared intermediates and writes exactly its bundle files;
    ``ingest`` also starts the manifest."""
    seen = {stage: (set(), set()) for stage in STAGE_ORDER}
    get, put = pipeline._Bundle.get, pipeline._Bundle.put
    monkeypatch.setattr(pipeline._Bundle, "get", lambda self, n: seen[self.stage][0].add(n) or get(self, n))
    monkeypatch.setattr(pipeline._Bundle, "put", lambda self, n, v: seen[self.stage][1].add(n) or put(self, n, v))
    root = demo_cfg.output_dir
    files = bundle_files(demo_cfg)
    written: set[str] = set()
    for stage in STAGE_ORDER:
        run_stage(stage, demo_cfg)
        now = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
        declared = {rel for rel, producer in files.items() if producer == stage}
        assert now - written == declared | ({"manifest.json"} if stage == "ingest" else set()), stage
        written = now
        entry = pipeline._STAGE_TABLE[stage]
        assert seen[stage] == (set(entry.reads), set(entry.puts)), stage


def test_run_keeps_each_value_until_its_last_reader(demo_cfg, monkeypatch):
    kept, held = {}, set()
    forget = pipeline._Bundle.forget

    def recording(self, stage):
        held.update(self._kept)  # everything held while the stage ran
        forget(self, stage)
        kept[stage] = set(self._kept)

    monkeypatch.setattr(pipeline._Bundle, "forget", recording)
    run_pipeline(demo_cfg)
    assert "reply" not in held
    read_networks = {"retweet", "mention", "all_communication", "reciprocal"}  # not reply: no stage reads it
    assert kept == {
        "ingest": {"corpus"},
        "hashtags": {"corpus", "hashtag_graph"},
        "propagate": {"corpus", "labels"},
        "classify": {"corpus", "stance"},
        "networks": {"corpus", "stance", *read_networks},
        "metrics": {"corpus", "stance"},
        "text": {"corpus", "stance"},
        "annotations": set(),
        "report": set(),
    }


def test_readme_stage_list_is_the_stage_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"^stancelab ([a-z|]+) --config CFG$", readme, flags=re.MULTILINE)
    assert tuple(listed.split("|")) == STAGE_ORDER
