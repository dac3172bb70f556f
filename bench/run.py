#!/usr/bin/env python3
"""Seeded benchmark of the clawmatch certify pipeline.

Run from the root of a checkout; the library is imported from ./src:

    python3 bench/run.py --workload cycle-ladder --seed 1 --seconds 20 --trace 0

Set-up imports the library and generates the workload's graph documents
from the seed; the run then repeats passes over those requests for
--seconds, checking every output, in one process and one thread.  With
--trace 0 the last line of standard output is one JSON object carrying the
end-to-end metrics of BENCHMARK.json; with --trace 1 the first half of the
time runs untraced, the second half traced, and the object carries the
per-layer metrics.  Times are scaled to the host's full speed (see
REFERENCE_S); the measured ones are printed too.  Lines before the JSON
are key=value context for people.
Exit status: 0 all outputs correct, 1 a check failed, 2 the benchmark could
not run.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # trace files and scratch documents, inside the checkout
SETUP_REPEATS = 5  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
# The host's speed varies by up to 1.8x in phases lasting seconds to minutes,
# so a fixed loop that took REFERENCE_S at full speed on the 2-vCPU host the
# benchmark was sized on is timed before every request, after every pass and
# around every set-up.  A pass (or the set-up phase) is reported in seconds at
# full speed: its measured seconds times REFERENCE_S over the median of the
# loop times taken during it.  The measured seconds are printed alongside.
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.0030
MODULES = ("formats", "graphs", "structure", "cyclespace", "counting", "expansion", "errors", "cli")


def import_library() -> SimpleNamespace:
    """A fresh import of clawmatch from ./src, so each set-up pays the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "clawmatch"]:
        del sys.modules[name]
    package = importlib.import_module("clawmatch")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"clawmatch was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"clawmatch.{m}") for m in MODULES})


def set_up(workload: str, seed: int):
    start = perf_counter()
    lib = import_library()
    requests = list(WORKLOADS[workload].generate(lib, random.Random(seed)))
    return perf_counter() - start, lib, requests


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the shared host runs right now."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return perf_counter() - start


def host_scale(references: list[float]) -> float:
    """Factor from measured seconds to seconds at full host speed, given the
    reference loop times taken during a timed stretch.  The median keeps one
    lost time slice in a 3 ms loop from moving the factor."""
    return REFERENCE_S / statistics.median(references)


def run_pass(lib, workload: str, requests, tracer: Tracer | None, label: str) -> dict:
    """One pass over the requests: its time, rows, output digest and failed checks."""
    gc.collect()
    request_fn = WORKLOADS[workload].request
    references = []
    raw = verify = 0.0
    rows = 0
    problems = []
    digest = hashlib.sha256()
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.request = f"{label}.{index}"
        references.append(reference_seconds())
        start = perf_counter()
        try:
            outcome = request_fn(lib, req)
        except Exception as exc:  # a request that raises is a failed request, not a crash
            outcome = Outcome(perf_counter() - start, 0.0, 0, (), f"{type(exc).__name__}: {exc}")
        raw += outcome.seconds
        verify += outcome.verify_s
        rows += outcome.rows
        for text in outcome.outputs:
            digest.update(text.encode())
        if outcome.problem is not None:
            problems.append(f"request {index} (n={req.n}): {outcome.problem}")
    references.append(reference_seconds())
    scale = host_scale(references)
    return {"wall_s": raw * scale, "raw_s": raw, "verify_s": verify * scale, "slowdown": 1 / scale,
            "rows": rows, "problems": problems, "digest": digest.hexdigest()}


def measure(lib, workload, requests, seconds: float, tracer: Tracer | None, label: str):
    """Passes over the requests until `seconds` have gone by; at least one."""
    passes, layers = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(run_pass(lib, workload, requests, tracer, f"{label}{len(passes)}"))
        if tracer is not None:
            layers.append(tracer.take_pass())
    return passes, layers


def check_cli(lib, workload: str, req) -> tuple[int, list[str]]:
    """Compare `clawmatch decompose|certify FILE` with the function pipeline on one host.

    Returns the number of commands checked and the problems found."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-{workload}.txt"
    path.write_text(req.doc)
    commands = ["decompose", "certify"] if WORKLOADS[workload].certifies else ["decompose"]
    problems = []
    try:
        g = lib.formats.parse_graph(req.doc)
        expected = {"decompose": lib.formats.serialize_decomposition(lib.structure.classify(g))}
        if "certify" in commands:
            expected["certify"] = lib.formats.serialize_certificate(lib.expansion.certify(g))
        for command in commands:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = lib.cli.main([command, str(path)])
            if code != 0 or captured.getvalue() != expected[command]:
                problems.append(f"clawmatch {command} differs from the function pipeline (exit {code})")
    except Exception as exc:  # reported as a failed check, like a request that raises
        problems.append(f"CLI check: {type(exc).__name__}: {exc}")
    finally:
        path.unlink()
    return len(commands), problems


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def plain_run(lib, args, requests, setup_s):
    """Untraced passes for the whole time: the end-to-end metrics."""
    passes, _ = measure(lib, args.workload, requests, args.seconds, None, "u")
    wall = median_of(passes, "wall_s")
    print(f"wall_raw_s={median_of(passes, 'raw_s')} unit=s")
    print(f"host_slowdown={median_of(passes, 'slowdown')}")
    print(f"rows_per_s={passes[0]['rows'] / wall} unit=1/s")
    print(f"verify_s={median_of(passes, 'verify_s')} unit=s")
    return passes, {
        "setup_s": setup_s,
        "wall_s": wall,
        "vertices_per_s": sum(r.n for r in requests) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(lib, args, requests, context):
    """Untraced passes for half the time, traced passes for the other half: per-layer metrics."""
    plain, _ = measure(lib, args.workload, requests, args.seconds / 2, None, "u")
    tracer = Tracer(lib)
    tracer.install()
    try:
        traced, layers = measure(lib, args.workload, requests, args.seconds / 2, tracer, "t")
    finally:
        tracer.uninstall()
    plain_wall = median_of(plain, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values.update({
        "rows_per_s": plain[0]["rows"] / plain_wall,
        "verify_s": median_of(plain, "verify_s"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_path, context)
    context["trace_file"] = str(trace_path.relative_to(ROOT))
    return plain + traced, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_at_start = os.getloadavg()
    setups, references = [], []
    docs = None
    setup_deadline = perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPEATS or perf_counter() < setup_deadline:
        lib = requests = None  # each set-up starts without the previous one's objects
        gc.collect()
        references.append(reference_seconds())
        seconds, lib, requests = set_up(args.workload, args.seed)
        references.append(reference_seconds())
        setups.append(seconds)
        if docs is not None and docs != [r.doc for r in requests]:
            raise RuntimeError("the same seed generated different inputs")
        docs = [r.doc for r in requests]
    setup_raw = statistics.median(setups)
    setup_s = setup_raw * host_scale(references)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": ",".join(f"{x:.2f}" for x in load_at_start),
        "requests": len(requests),
        "max_n": max(r.n for r in requests),
        "vertices": sum(r.n for r in requests),
        "trace": args.trace,
    }
    run_checks, problems = check_cli(lib, args.workload, requests[0])

    if args.trace:
        passes, values = traced_run(lib, args, requests, context)
        wanted = spec["per_layer"]
    else:
        print(f"setup_raw_s={setup_raw} unit=s")
        passes, values = plain_run(lib, args, requests, setup_s)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
                           "disagree with BENCHMARK.json")

    # run-level checks (CLI bytes, passes agreeing, the pinned digest) count
    # as attempted and failed like the per-request ones
    digests = {p["digest"] for p in passes}
    pin = pinned_digest(args.workload, args.seed)
    run_checks += 1 if pin is None else 2
    if len(digests) != 1:
        problems.append("serialised outputs differ between passes")
    if pin is not None and pin not in digests:
        problems.append(f"serialised outputs differ from the pinned digest {pin}")
    failed = len(problems) + sum(len(p["problems"]) for p in passes)
    attempted = run_checks + len(requests) * len(passes)
    for p in passes:
        problems.extend(p["problems"])
    context.update(passes=len(passes), digest=passes[0]["digest"],
                   digest_pinned="none" if pin is None else str(pin in digests).lower())

    for key, value in context.items():
        print(f"{key}={value}")
    print(f"failed_ratio={failed / attempted} attempted={attempted} failed={failed}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']}={values[m['name']]} unit={m['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
