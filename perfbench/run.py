"""Source-to-verdict benchmark for the FreezeML checker.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (rationale in README.md and BENCHMARK.json):

* ``corpus``      in-process ``Session.check`` -> ``to_dict`` -> ``json.dumps``
                  over the Figure 1 programs and ``examples/*.fml``;
* ``large``       the same path over generated 60-200 definition programs;
* ``serve-hot``   ``POST /check`` to ``repro serve --jobs 1`` with every
                  answer already cached;
* ``serve-fresh`` the same server, every request a distinct source.

Every verdict is checked against an expected answer the checker under
test did not produce.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The
exit code is 0 only when every verdict was right.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    DEFAULT_RECURSION_LIMIT,
    OUT,
    ROOT,
    SETUP_REPEATS,
    Samples,
    Verifier,
    end_to_end,
    inprocess_setup_once,
    median_setup,
    metric,
    one_cpu,
    self_peak_rss_mb,
    timed_start,
    timed_window,
    traced_run,
)

WORKLOADS = ("corpus", "large", "serve-hot", "serve-fresh")

#: generated programs per ``large`` pass; their sizes are spread evenly
#: over 60-200 definitions, so every seed sees the same size mix
LARGE_PROGRAMS = 40

#: on these workloads the traced layers must cover this share of
#: ``api.check_ms``, or the run fails
ATTRIBUTED_WORKLOADS = ("corpus", "large")
MIN_ATTRIBUTED_SHARE = 0.9


class ClosedLoop:
    """One request at a time over ``order``, again and again, from
    where the previous segment stopped."""

    def __init__(self, session, order, verifier: Verifier):
        self.session = session
        self.order = order
        self.verifier = verifier
        self.index = 0
        self.json_span = lambda _name: nullcontext()

    def segment(self, segment_deadline: float, run_deadline: float):
        """See :func:`measure.timed_window`."""
        latencies: list[float] = []
        wrong = 0
        order, check = self.order, self.verifier.check
        began = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now >= run_deadline and self.index % len(order) == 0:
                done = True
                break
            if now >= segment_deadline:
                done = False
                break
            program = order[self.index % len(order)]
            self.index += 1
            start = time.perf_counter()
            result = self.session.fork().check(program.source)
            with self.json_span("api.json"):
                text = json.dumps(result.to_dict())
            latencies.append(time.perf_counter() - start)
            if not check(program.name, program.source, False, program.expected, text):
                wrong += 1
        return latencies, now - began, wrong, done

    def window(self, seconds: float, seed: str) -> tuple[Samples, int]:
        samples = Samples(seed)
        return samples, timed_window(self.segment, seconds, samples)


def inprocess(args, programs) -> dict:
    from repro import Session

    order = list(programs)
    random.Random(f"{args.workload}:{args.seed}").shuffle(order)
    verifier = Verifier()
    loop = ClosedLoop(Session(), order, verifier)
    seed = f"samples:{args.workload}:{args.seed}"
    if not args.trace:
        setup = median_setup(
            [timed_start(inprocess_setup_once) for _ in range(SETUP_REPEATS)]
        )
        samples, wrong = loop.window(args.seconds, seed)
        metrics, report = end_to_end(samples, setup, self_peak_rss_mb())
        return {
            "attempted": samples.requests,
            "failed": wrong,
            "problems": verifier.problems,
            "metrics": metrics,
            "report": report,
        }

    from spans import Tracer, install, layer_values, parse_nodes, take_snapshot, window

    # Untraced first, then the same passes with every layer wrapped.
    plain, wrong = loop.window(args.seconds / 2, seed)
    memo: dict[str, int] = {}
    for program in order:
        parse_nodes(program.source, memo)  # before the parser is wrapped
    tracer = Tracer()
    install(tracer)
    loop.json_span = tracer.span

    def figures(marks, windows) -> dict:
        nodes = sum(parse_nodes(s, memo) for mark in marks[1:] for s in mark["sources"])
        values = layer_values(
            window(marks[0], marks[-1]), sum(w.requests for w in windows), nodes
        )
        values.update({"service.hit_ratio": 0.0, "service.coalesced": 0.0, "server.overhead_ms": 0.0})
        return values

    outcome = traced_run(
        plain,
        lambda: loop.window(args.seconds / 4, seed),
        lambda: take_snapshot(tracer),
        figures,
    )
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    outcome["failed"] += wrong
    outcome["problems"] = verifier.problems
    share = outcome["metrics"]["trace.attributed_share"]
    if args.workload in ATTRIBUTED_WORKLOADS and share < MIN_ATTRIBUTED_SHARE:
        outcome["failed"] += 1
        outcome["problems"].append(
            f"the layers cover {share:.1%} of api.check_ms, under {MIN_ATTRIBUTED_SHARE:.0%}"
        )
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        print(
            f"error: recursion limit is {sys.getrecursionlimit()}, "
            f"not the default {DEFAULT_RECURSION_LIMIT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, one_cpu())

    import programs

    if args.workload == "corpus":
        outcome = inprocess(args, programs.corpus(ROOT))
    elif args.workload == "large":
        outcome = inprocess(args, programs.large_set(args.seed, LARGE_PROGRAMS))
    else:
        import serve

        outcome = serve.run(args)

    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        outcome["failed"] += 1
        outcome["problems"].append("the recursion limit changed during the run")
    return emit(args, outcome)


def emit(args, outcome: dict) -> int:
    from spans import PER_LAYER

    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"requests {attempted}  failed {failed}  failed_share {failed / attempted:.6f}")
    for problem in outcome["problems"]:
        print(f"  wrong: {problem}")
    if args.trace:
        values = outcome["metrics"]
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
        print(f"tracing overhead {values['trace.overhead_pct']:.1f}% of untraced throughput")
        print(
            f"layers account for {values['trace.attributed_share']:.1%} of api.check_ms"
        )
        for name, exact in sorted(outcome["repeats"].items()):
            print(f"  counter {name}: {'repeats exactly' if exact else 'varies'}")
    else:
        metrics = outcome["metrics"]
        print(outcome["report"])
    for name, entry in metrics.items():
        print(f"  {name:24} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A terminated run unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
