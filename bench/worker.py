"""Build one stancelab bundle in a fresh interpreter and report its cost.

    python3 bench/worker.py --config CFG --out DIR --mode pipeline|staged [--trace] [--setup-only]

The process imports stancelab and parses the config (``setup_s``), then
builds the bundle in ``DIR`` either with ``run_pipeline`` or stage by stage
with ``run_stage`` in ``STAGE_ORDER``, as the CLI does (``wall_s``).  It
prints one JSON line with both times and the process's peak resident memory.

With ``--trace`` the names ``stancelab.pipeline`` imports from each layer,
``netmetrics.eigenvector_centrality`` and the nine stage functions are
wrapped in spans.  Spans stay in memory and are written to
``DIR/../spans.json`` when the bundle is done; ``bookkeeping_s`` estimates
what they cost, as their count times the measured cost of one span on a
no-op.  With or without ``--trace``, ``lda_fit`` is wrapped to record the
row sums of each fitted ``phi`` for the output checks; that costs one
function call per stance group.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layer span names for the functions stancelab.pipeline imports.  A function
# absent here runs inside its stage's span and counts toward pipeline.self_s.
LAYER_OF = {
    "load_corpus": "corpus.load",
    "dump_corpus": "corpus.dump",
    "build_cooccurrence_graph": "hashtag_graph.build",
    "propagate_labels": "hashtag_graph.propagate",
    "classify_users": "stance.classify",
    "build_network": "commnet.build",
    "all_communication": "commnet.build",
    "reciprocal_subnetwork": "commnet.build",
    "attach_stances": "commnet.build",
    "group_subgraph": "commnet.build",
    "write_network_json": "commnet.json_io",
    "read_network_json": "commnet.json_io",
    "export_graph": "commnet.export",
    "echo_chamberness": "netmetrics.echo",
    "influence_base": "netmetrics.influencers",
    "super_spreaders": "netmetrics.influencers",
    "super_friends": "netmetrics.influencers",
    "tokenize": "textlab.tokenize",
    "lda_fit": "textlab.lda",
    "bot_threshold_sweep": "annotations.sweep",
    "news_source_concentration": "annotations.concentration",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, token updates]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, 0]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "textlab.lda":
                span[4] = sum(len(doc.tokens) for doc in args[0]) * result.iterations
            return result

        return traced


def span_cost_s() -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one, median of 5 x 10,000 calls."""

    def noop() -> None:
        return None

    calls = 10_000
    costs = []
    for _ in range(5):
        traced = Tracer().wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def install_tracer(pipeline, netmetrics) -> Tracer:
    tracer = Tracer()
    for attr, layer in LAYER_OF.items():
        setattr(pipeline, attr, tracer.wrap(layer, getattr(pipeline, attr)))
    netmetrics.eigenvector_centrality = tracer.wrap("netmetrics.eigen", netmetrics.eigenvector_centrality)
    for stage, fn in list(pipeline._STAGES.items()):
        pipeline._STAGES[stage] = tracer.wrap(f"pipeline.{stage}", fn)
    return tracer


def record_topics(pipeline) -> list[dict]:
    fitted: list[dict] = []
    fit = pipeline.lda_fit

    def recording(*args, **kwargs):
        model = fit(*args, **kwargs)
        fitted.append({"phi_row_sums": model.phi.sum(axis=1).tolist()})
        return model

    pipeline.lda_fit = recording
    return fitted


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--mode", choices=("pipeline", "staged"), default="pipeline")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    from stancelab import netmetrics, pipeline

    cfg = pipeline.PipelineConfig.from_file(args.config)
    cfg.validate()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    cfg.output_dir = args.out
    tracer = install_tracer(pipeline, netmetrics) if args.trace else None
    fitted = record_topics(pipeline)

    start = time.perf_counter()
    if args.mode == "pipeline":
        pipeline.run_pipeline(cfg)
    else:
        for stage in pipeline.STAGE_ORDER:
            pipeline.run_stage(stage, cfg)
    wall_s = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "lda": fitted}
    if tracer is not None:
        with open(args.out.parent / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["bookkeeping_s"] = len(tracer.spans) * span_cost_s()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
