"""The stage table in stancelab.pipeline and what is derived from it: the
bundle file list, each intermediate's producer and last reader, the stages
``run_pipeline`` steps in its forked child, the values it keeps between
stages, and the stage list in the README."""

import gc
import inspect
import os
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stancelab.pipeline as pipeline
from stancelab.demo import write_demo_config
from stancelab.pipeline import STAGE_ORDER, PipelineConfig, StageError, bundle_files, run_pipeline, run_stage

from util import append_record, oracle_bundle_files, oracle_last_readers, oracle_producers, read_records


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
def test_missing_intermediate_names_its_producer(name, demo_cfg):
    with pytest.raises(StageError, match=f"run the {oracle_producers()[name]} stage first"):
        pipeline._Bundle(demo_cfg.output_dir, demo_cfg).get(name)


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


def test_each_stage_takes_its_reads_as_keyword_arguments():
    for name, entry in pipeline._STAGE_TABLE.items():
        params = inspect.signature(entry.run).parameters.values()
        assert [p.name for p in params if p.kind is not p.KEYWORD_ONLY] == ["cfg", "bundle"], name
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == list(entry.reads), name


def _without_reads(cfg, bundle):
    pass


def _with_labels(cfg, bundle, *, corpus, labels):
    pass


@pytest.mark.parametrize(
    "body, message", [(_without_reads, "unexpected keyword argument 'corpus'"), (_with_labels, "'labels'")]
)
def test_a_body_unlike_its_reads_fails_as_its_stage(demo_cfg, monkeypatch, body, message):
    run_stage("ingest", demo_cfg)
    monkeypatch.setitem(pipeline._STAGES, "hashtags", body)
    with pytest.raises(StageError, match=message) as info:
        run_stage("hashtags", demo_cfg)
    assert info.value.stage == "hashtags"


def test_run_keeps_each_value_until_its_last_reader(demo_cfg, monkeypatch, tmp_path):
    """Recorded through files, so the stages stepped in the forked child count too."""
    held_log, kept_log = tmp_path / "held.jsonl", tmp_path / "kept.jsonl"
    for name, run in list(pipeline._STAGES.items()):

        def recorded(cfg, bundle, run=run, **inputs):
            run(cfg, bundle, **inputs)
            append_record(held_log, sorted(bundle._held))  # all held once the stage has run, before its step drops any

        monkeypatch.setitem(pipeline._STAGES, name, recorded)
    step = pipeline._Bundle.step

    def recording(self, stage):
        step(self, stage)
        append_record(kept_log, [stage, sorted(self._held)])

    monkeypatch.setattr(pipeline._Bundle, "step", recording)
    run_pipeline(demo_cfg)
    held = set().union(*read_records(held_log))
    kept = {stage: set(values) for stage, values in read_records(kept_log)}
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


def test_the_forked_stages_and_the_others_need_no_value_from_each_other():
    """Read off the table: the forked stages read only what is put before them
    or by an earlier forked stage, and only forked stages read what they put."""
    table, forked = pipeline._STAGE_TABLE, pipeline._CHILD_LANE
    assert forked == ("networks", "metrics")
    fork = STAGE_ORDER.index(forked[0])
    available = {item for stage in STAGE_ORDER[:fork] for item in table[stage].puts}
    for stage in forked:
        assert set(table[stage].reads) <= available, stage
        available |= set(table[stage].puts)
    put_by_forked = {item for stage in forked for item in table[stage].puts}
    assert {stage for stage, entry in table.items() if put_by_forked & set(entry.reads)} <= set(forked)
    beside = [stage for stage in STAGE_ORDER[fork:-1] if stage not in forked]
    assert beside == ["text", "annotations"]
    assert not {item for stage in beside for item in table[stage].puts} & {r for s in forked for r in table[s].reads}


def test_run_steps_the_forked_stages_in_one_child(demo_cfg, monkeypatch, tmp_path):
    log = tmp_path / "pids.jsonl"
    for name, run in list(pipeline._STAGES.items()):

        def recorded(cfg, bundle, run=run, name=name, **inputs):
            append_record(log, [name, os.getpid()])
            run(cfg, bundle, **inputs)

        monkeypatch.setitem(pipeline._STAGES, name, recorded)
    run_pipeline(demo_cfg)
    pids = dict(read_records(log))
    assert set(pids) == set(STAGE_ORDER)
    child = {pids[stage] for stage in pipeline._CHILD_LANE}
    assert len(child) == 1 and os.getpid() not in child
    assert {pid for stage, pid in pids.items() if stage not in pipeline._CHILD_LANE} == {os.getpid()}


def test_run_stage_holds_nothing_after_it_returns(demo_cfg, monkeypatch):
    """``run_stage`` keeps neither its bundle nor a value it put alive once it returns."""
    alive = []
    init, put = pipeline._Bundle.__init__, pipeline._Bundle.put

    def recording_init(self, *args):
        init(self, *args)
        alive.append(weakref.ref(self))

    def recording_put(self, name, value):
        put(self, name, value)
        if name != "labels":  # a dict, which takes no weak reference
            alive.append(weakref.ref(value))

    monkeypatch.setattr(pipeline._Bundle, "__init__", recording_init)
    monkeypatch.setattr(pipeline._Bundle, "put", recording_put)
    for stage in STAGE_ORDER:
        run_stage(stage, demo_cfg)
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == [], stage


def test_readme_stage_list_is_the_stage_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"^stancelab ([a-z|]+) --config CFG$", readme, flags=re.MULTILINE)
    assert tuple(listed.split("|")) == STAGE_ORDER
