"""stancelab benchmark: one workload per invocation, checked outputs, one JSON result line.

    python3 bench/run.py --workload crowd|topics|tags --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its inputs from the seed
under ``.bench_out/<workload>/``, then, for about ``--seconds`` seconds and at
least ``MIN_REPS`` rounds, builds the bundle in a fresh interpreter
(``bench/worker.py``) and measures ``setup_s`` in a few more.  ``tags``
first builds one bundle with ``run_pipeline`` that its staged bundles must
equal.  The first bundle is checked against the planted truth and every
later one for identical bytes; the medians are printed as the last line.
A build that crashes or times out counts as a failed operation and ends
the run; the result line is still printed and the command exits 1.
With ``--trace 1`` each round builds one untraced and one traced bundle and
the result holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

MODES = {"crowd": "pipeline", "topics": "pipeline", "tags": "staged"}
MIN_REPS = 3
MIN_TRACED_ROUNDS = 2
SETUP_PROBES_PER_ROUND = 3
WORKER_TIMEOUT_S = 150
# NumPy and its BLAS stay on one thread.
ENV = os.environ | {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

STAGES = ("ingest", "hashtags", "propagate", "classify", "networks", "metrics", "text", "annotations", "report")
LAYER_METRICS = (
    "corpus.load", "corpus.dump", "hashtag_graph.build", "hashtag_graph.propagate", "stance.classify",
    "commnet.build", "commnet.json_io", "commnet.export", "netmetrics.echo", "netmetrics.eigen",
    "netmetrics.influencers", "textlab.tokenize", "textlab.lda", "annotations.sweep", "annotations.concentration",
)  # fmt: skip


def worker(config: Path, *extra: str) -> dict | None:
    """The worker's JSON line, or None (with its error on stderr) if it did not complete."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config), *extra]
    try:
        done = subprocess.run(cmd, env=ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode == 0:
            return json.loads(done.stdout.splitlines()[-1])
        error = f"exited {done.returncode}:\n{done.stderr}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {WORKER_TIMEOUT_S} s"
    except (ValueError, IndexError):
        error = f"printed no result:\n{done.stdout}"
    print(f"worker {' '.join(extra)} {error}", file=sys.stderr)
    return None


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Self time per layer, stage times and counts from one traced bundle."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {f"{layer}_s": 0.0 for layer in LAYER_METRICS} | {f"pipeline.{s}_s": 0.0 for s in STAGES}
    out |= {"pipeline.self_s": 0.0, "corpus.loads": 0, "textlab.gibbs_tokens_per_s": 0.0}
    lda_s = updates = 0.0
    for i, (name, start, end, parent, tokens) in enumerate(spans):
        if name.startswith("pipeline."):
            out[f"{name}_s"] += end - start
            out["pipeline.self_s"] += end - start - covered[i]
        else:
            out[f"{name}_s"] += end - start - covered[i]
        if name == "corpus.load":
            out["corpus.loads"] += 1
        if name == "textlab.lda":
            lda_s += end - start
            updates += tokens
    if updates:
        out["textlab.gibbs_tokens_per_s"] = updates / lda_s
    out["pipeline.outside_stages_s"] = wall_s - sum(out[f"pipeline.{s}_s"] for s in STAGES)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stancelab" / "__init__.py").is_file():
        print(f"no stancelab sources under {ROOT / 'src'}; run from a stancelab checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    truth = gen.generate(gen.WORKLOADS[args.workload], args.seed, inputs)
    config = inputs / "config.cfg"
    mode = MODES[args.workload]

    builds: list[dict] = []  # the builds that completed
    timed: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    failures: list[str] = []
    attempted = 0

    def build(*flags: str) -> dict | None:
        nonlocal attempted
        out = work / f"bundle{attempted}"
        attempted += 1
        result = worker(config, "--out", str(out), *flags)
        if result is None:
            failures.append(f"build {attempted} ({' '.join(flags)}) did not complete")
            return None
        builds.append(result | {"out": out, "digest": checks.bundle_digest(out)})
        if len(builds) > 1:
            shutil.rmtree(out)
        return result

    worker(config, "--setup-only")  # compiles bytecode; not timed
    start = time.perf_counter()
    if mode == "staged":
        build("--mode", "pipeline")  # the staged bundles must equal this run_pipeline one
    # A failure ends the run: the next build would most likely fail the same
    # way, and after a timeout there is no time for another.
    while not failures:
        round_start = time.perf_counter()
        if (result := build("--mode", mode)) is None:
            break
        timed.append(result)
        if args.trace:
            if (result := build("--mode", mode, "--trace")) is None:
                break
            with open(work / "spans.json", encoding="utf-8") as fh:
                spans = json.load(fh)
            traced.append(layer_metrics(spans, result["wall_s"]) | {
                "wall_s": result["wall_s"], "trace.bookkeeping_s": result["bookkeeping_s"]})  # fmt: skip
        else:
            probes = [worker(config, "--setup-only") for _ in range(SETUP_PROBES_PER_ROUND)]
            if None in probes:
                failures.append("a setup probe did not complete")
            setup += [p["setup_s"] for p in probes if p]
        now = time.perf_counter()
        enough = len(timed) >= (MIN_TRACED_ROUNDS if args.trace else MIN_REPS)
        if enough and (now - start) + (now - round_start) > args.seconds:
            break

    failed = attempted - len(builds)
    digest = builds[0]["digest"] if builds else None
    if builds:
        try:
            found = checks.check_bundle(builds[0]["out"], inputs, truth, builds[0]["lda"], args.workload == "topics")
        except Exception as exc:  # a malformed bundle can break a check's own parsing
            traceback.print_exc()
            found = [f"checks raised {exc!r}"]
        differ = sum(1 for b in builds if b["digest"] != digest)
        failed += len(builds) if found else differ
        if differ:
            found.append(f"{differ} bundles differ from the first build of the same inputs")
        failures += found
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    walls = [r["wall_s"] for r in timed]
    metrics: dict[str, float] = {}
    if args.trace and traced:
        metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0] if name != "wall_s"}
        # Each traced build runs right after its untraced twin; pairing them
        # keeps drift in machine speed out of the difference.
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - w for t, w in zip(traced, walls))
    elif not args.trace and setup:
        metrics = {
            "wall_s": statistics.median(walls),
            "tweets_per_s": statistics.median(truth["tweets"] / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "setup_s": statistics.median(setup),
        }
    units = {"corpus.loads": "count", "tweets_per_s": "1/s", "textlab.gibbs_tokens_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"bundle_digest {args.workload} {digest}")
    print(f"{args.workload}: {truth['tweets']} tweets, {mode} mode, {len(timed)} timed and {len(traced)} traced builds")
    print(f"  build wall_s: {' '.join(f'{w:.3f}' for w in walls)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, 's')}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units.get(name, "s")} for name, value in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
