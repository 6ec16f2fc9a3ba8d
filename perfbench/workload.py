"""Workloads of the filtermin benchmark: inputs, calls, checks and figures.

Every workload is a closed loop with one client: one request at a time,
each request in a process of its own (forked), so that the request's peak
resident memory is that process's `ru_maxrss`.  A request is one input
filter and the methods that must each minimize it; its calls run one
after the other.

Workloads, and why each was chosen:

* medium-prove: 13-state filters over 3..10 observation tokens, each
  proven minimal by both `sat` and `lazy-sat` under a guard budget that is
  never hit.  Search and the final UNSAT proof dominate; set-up is small.
  The request is the pair of calls that the agreement check compares.
* large-lazy: 101-state, 50-token filters, `lazy-sat` under a fixed
  per-call budget.  A descent through many SAT answers: model decoding,
  zip checks, reload rounds and solver start-up.
* large-eager: the same filters under `sat` and the same budget.  Formula
  build, solver load and memory dominate; today it reaches no SAT answer.
"""
from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from filtermin import (SAT, Budget, GenParams,  # noqa: E402
                       GenerationError, METHOD_LAZY, METHOD_SAT, generate,
                       is_deterministic, is_zipped, minimize,
                       output_simulates)
from filtermin.rng import derive  # noqa: E402

MEDIUM_SHAPE = dict(layers=4, width=3, self_loops=2, back_edges=2,
                    n_outputs=5, outputs_per_state=2)
LARGE_SHAPE = dict(layers=20, width=5, self_loops=10, back_edges=10,
                   n_outputs=5, outputs_per_state=1, n_observations=50)
MEDIUM_ALPHABETS = range(3, 11)
# medium instances per alphabet size per second of --seconds: one
# instance costs about 0.2 s for both methods on a 2-core x86 box, so a
# run spends about --seconds (12 per alphabet, 96 instances, at 20 s)
MEDIUM_PER_ALPHABET_PER_S = 0.6
# Both large workloads give each call a third of --seconds.  Below about
# 5 s some lazy calls have not reached their first SAT answer yet, so the
# best size jumps between ~60 and 101 from seed to seed.  Four lazy
# instances keep the mean best size steady; eager set-up costs about 10 s
# an instance, so it gets the first three.
LARGE_INSTANCES = {"large-lazy": 4, "large-eager": 3}
LARGE_BUDGET_SHARE = 1 / 3
# a request process that runs this long is killed and counts as failed
REQUEST_LIMIT_S = 150

WORKLOADS = ("medium-prove", "large-lazy", "large-eager")


@dataclass(frozen=True)
class Request:
    """One instance and the methods that must each minimize it."""

    params: GenParams
    methods: tuple
    budget_s: float
    must_prove: bool


@dataclass
class CallResult:
    method: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    best_size: int = 0
    error: str | None = None


def _medium_params(seed, n_obs, j):
    # a cramped alphabet may not be realizable; step to the next seed path
    for attempt in range(16):
        params = GenParams(n_observations=n_obs,
                           seed=derive(seed, n_obs, j, attempt),
                           **MEDIUM_SHAPE)
        try:
            generate(params)
        except GenerationError:
            continue
        return params
    raise GenerationError(f"no medium instance for seed {seed}, "
                          f"{n_obs} tokens, index {j}")


def requests_for(workload: str, seed: int, seconds: float):
    """The workload's inputs, a pure function of (workload, seed, seconds)."""
    if workload == "medium-prove":
        per_alphabet = max(2, round(MEDIUM_PER_ALPHABET_PER_S * seconds))
        return [Request(_medium_params(seed, n_obs, j),
                        (METHOD_SAT, METHOD_LAZY), float(seconds), True)
                for j in range(per_alphabet) for n_obs in MEDIUM_ALPHABETS]
    if workload in LARGE_INSTANCES:
        method = METHOD_LAZY if workload == "large-lazy" else METHOD_SAT
        return [Request(GenParams(seed=derive(seed, i), **LARGE_SHAPE),
                        (method,), seconds * LARGE_BUDGET_SHARE, False)
                for i in range(LARGE_INSTANCES[workload])]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def check_answer(flt, report, must_prove):
    """None when the report is a correct answer for `flt`, else the reason."""
    cover = report.best_cover
    if not cover.is_valid():
        return "cover misses a state"
    if not is_zipped(cover):
        return "cover is not zipped"
    if report.best_size > flt.n_states:
        return "cover is larger than the input"
    if not is_deterministic(report.best_filter):
        return "result is not deterministic"
    if not output_simulates(report.best_filter, flt).holds:
        return "result does not output-simulate the input"
    if must_prove and not report.proven_minimal:
        return "not proven minimal"
    return None


def run_call(flt, method, req, tracer):
    """One timed minimize call plus its correctness check."""
    res = CallResult(method)
    if tracer is not None:
        tracer.next_call()
    root = tracer.root if tracer is not None else (lambda name: nullcontext())
    try:
        with root("minimize") as rec:
            t0 = time.perf_counter()
            report = minimize(flt, method=method, budget=Budget(req.budget_s),
                              seed=req.params.seed)
            res.wall_s = time.perf_counter() - t0
        with root("filters.verify"):
            res.error = check_answer(flt, report, req.must_prove)
    except Exception:   # every exception is a failed call, not a lost run
        res.error = traceback.format_exc()
        return res
    res.setup_s = res.wall_s - sum(it.elapsed_s for it in report.iterations)
    res.best_size = report.best_size
    if rec is not None:
        rec.update(method=method, k_steps=len(report.iterations),
                   accepted=sum(it.outcome == SAT
                                for it in report.iterations),
                   proven=report.proven_minimal,
                   zip_obs_loaded=report.zip_obs_loaded,
                   zip_pairs_loaded=report.zip_pairs_loaded)
    return res


def run_request(req, tracer=None):
    """All calls of one request, then the check that proven sizes agree."""
    flt = generate(req.params)
    calls = [run_call(flt, m, req, tracer) for m in req.methods]
    sizes = {c.best_size for c in calls if c.error is None}
    if req.must_prove and len(sizes) > 1:
        for c in calls:
            c.error = c.error or f"methods disagree on size: {sizes}"
    return calls


def _request_process(req, tracer):
    """Body of a forked request process; returns what the parent needs."""
    first_span = len(tracer.spans) if tracer is not None else 0
    calls = run_request(req, tracer)
    out = {"calls": [asdict(c) for c in calls]}
    if tracer is not None:
        out["spans"] = tracer.spans[first_span:]
        out["call"] = tracer.call
    return out


def run_isolated(req, tracer=None):
    """Run one request in a forked process.

    Returns its CallResults and the process's peak resident memory in MB.
    The fork copies the tracer with its patches in place; the spans the
    request records come back through the pipe with the results.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            signal.alarm(REQUEST_LIMIT_S)
            payload = json.dumps(_request_process(req, tracer)).encode()
            with os.fdopen(wfd, "wb") as sink:
                sink.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as source:
        payload = source.read()
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024          # Linux reports KiB
    if status != 0 or not payload:
        return [CallResult(m, error=f"request process ended with status "
                                    f"{status}") for m in req.methods], peak_mb
    out = json.loads(payload)
    if tracer is not None:
        tracer.adopt(out["spans"], out["call"])
    return [CallResult(**c) for c in out["calls"]], peak_mb


def end_to_end(done):
    """Figures over the requests whose calls all passed the check.

    `done` holds (calls, peak_mb) per request.  Times and memory are
    medians over requests; best_size is the mean over calls.
    """
    good = [(calls, peak) for calls, peak in done
            if all(c.error is None for c in calls)]
    walls = [sum(c.wall_s for c in calls) for calls, _ in good]
    metrics = {
        "call_s.p50": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(
            sum(c.setup_s for c in calls) for calls, _ in good), "s"),
        "best_size": (statistics.fmean(
            c.best_size for calls, _ in good for c in calls), "states"),
        "peak_rss_mb": (statistics.median(peak for _, peak in good), "MB"),
    }
    info = {"requests": len(good), "call_s.p90": _p90(walls),
            "peak_rss_mb.max": max(peak for _, peak in good)}
    for method in (METHOD_SAT, METHOD_LAZY):
        times = [c.wall_s for calls, _ in good for c in calls
                 if c.method == method]
        if times:
            info[f"{method}.call_s.p50"] = statistics.median(times)
            info[f"{method}.call_s.p90"] = _p90(times)
    return metrics, info


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]
