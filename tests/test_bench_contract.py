"""The names the benchmark worker (bench/worker.py) patches or calls on
stancelab.pipeline.  The worker wraps them at run time to trace layers and
to record each fitted topic model for the output checks, so a refactor that
drops one, or calls it through a reference taken at import time, would
silently break those checks and spans."""

import importlib.util
from pathlib import Path

import pytest

import stancelab.pipeline as pipeline
from stancelab.demo import write_demo_config

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_pipeline_attribute(worker):
    missing = [name for name in worker.LAYER_OF if not callable(getattr(pipeline, name, None))]
    assert missing == []


def test_stage_table_matches_stage_order():
    assert tuple(pipeline._STAGES) == pipeline.STAGE_ORDER


def test_patched_lda_fit_is_the_one_run_pipeline_calls(worker, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "lda_fit", pipeline.lda_fit)  # restored after the test
    fitted = worker.record_topics(pipeline)
    cfg = pipeline.PipelineConfig.from_file(write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out"))
    pipeline.run_pipeline(cfg)
    assert len(fitted) == 2  # one model per stance group


def test_patched_stage_is_the_one_run_pipeline_and_run_stage_call(tmp_path, monkeypatch):
    calls = []
    text = pipeline._STAGES["text"]
    monkeypatch.setitem(pipeline._STAGES, "text", lambda cfg, bundle: calls.append(bundle.keep) or text(cfg, bundle))
    cfg = pipeline.PipelineConfig.from_file(write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out"))
    pipeline.run_pipeline(cfg)
    pipeline.run_stage("text", cfg)
    assert calls == [True, False]  # once from run_pipeline, once from run_stage
