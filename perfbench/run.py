"""Closed-loop benchmark of ``aomoto_lab.cli.run`` with one client.

    python3 perfbench/run.py --workload exact-egregium --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  A run sends whole rounds of seeded
requests (see ``workloads.py``), checks every report against an
independent oracle outside the timed region, prints a readable summary
and, as its last line, one JSON object with the metrics named in
``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

An untraced run pins itself to one processor and samples that
processor's speed while it measures (``speed.py``).  Its JSON timings are
in seconds at the reference speed; the readable summary gives the raw
timings next to them.

A traced run alternates untraced and traced rounds over the same
requests, so the tracing overhead is measured on identical inputs, and
writes every span to ``.perfbench_traces/`` when it ends.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_REPEATS = 15
E2E_UNITS = {"throughput_rps": "1/s", "request_p50_s": "s", "request_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import aomoto_lab.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

sys.path.insert(0, str(ROOT))
from perfbench import oracles, speed, stats, tracing, workloads  # noqa: E402


def _load_program():
    """Import aomoto_lab.cli from this checkout's src/, or exit with code 2."""
    if not (SRC / "aomoto_lab" / "cli.py").is_file():
        sys.exit(f"error: no aomoto_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aomoto_lab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported aomoto_lab from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(repeats=SETUP_REPEATS):
    """Times to import aomoto_lab.cli in fresh interpreters.

    Returns one (import seconds, start, end) per interpreter, with the
    interval in which the parent waited for it.  One extra interpreter
    runs first and is discarded, so a checkout's first run does not count
    writing the bytecode cache.
    """
    def once():
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        return float(out.stdout.strip().splitlines()[-1]), start, time.perf_counter()

    once()
    return [once() for _ in range(repeats)]


class Client:
    """Sends requests one at a time and keeps per-request results."""

    def __init__(self, cli, oracle):
        self.cli = cli
        self.oracle = oracle
        self.attempted = 0
        self.failures = []
        self.intervals = []

    def send(self, request, tracer=None, request_id=None):
        """Run one request; returns its latency in seconds.

        With a tracer the latency is the root span's duration, so the
        request's self times add up to it.
        """
        config = json.loads(json.dumps(request.config))
        report = None
        error = None
        start = time.perf_counter()
        if tracer:
            tracer.begin_request(request_id)
        try:
            report = self.cli.run(request.command, config)
            if tracer:
                tracer.begin(tracing.SERIALIZE)
            try:
                json.dumps(report, sort_keys=True, indent=2)
            finally:
                if tracer:
                    tracer.end()
        except Exception:  # a failed request is counted, not fatal
            error = traceback.format_exc(limit=3)
        finally:
            latency = tracer.end_request() if tracer else time.perf_counter() - start
        self.intervals.append((start, start + latency))
        self.attempted += 1
        problems = [error] if error else self.oracle.check(request, report)
        if problems:
            self.failures.append((request.label, request.config, problems))
        return latency


def run_rounds(workload, seed, seconds, body):
    """Call body(index, requests) round after round until the time is spent.

    A new round starts only if the mean round so far still fits in the
    remaining time, so a run lasts about ``seconds`` or one round,
    whichever is longer.
    """
    start = time.perf_counter()
    index = 0
    while True:
        body(index, workloads.make_round(workload, seed, index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return index, elapsed


def _class_table(samples):
    by_label = {}
    for label, latency in samples:
        by_label.setdefault(label, []).append(latency)
    return [(label, len(v), statistics.median(v)) for label, v in sorted(by_label.items())]


def end_to_end(workload, seed, seconds, client):
    """Timed rounds; returns (label, start, end) per request, rounds and elapsed."""
    samples = []

    def body(index, requests):
        for request in requests:
            client.send(request)
            samples.append((request.label, *client.intervals[-1]))

    rounds, elapsed = run_rounds(workload, seed, seconds, body)
    return samples, rounds, elapsed


def end_to_end_metrics(samples, setup, factor):
    """The timing metrics, each measured interval times factor(start, end)."""
    latencies = [(label, (end - start) * factor(start, end)) for label, start, end in samples]
    values = [lat for _, lat in latencies]
    tail, tail_label, beyond = stats.tail(values)
    metrics = {
        "throughput_rps": len(values) / sum(values),
        "request_p50_s": stats.median(values),
        "request_tail_s": tail,
        "setup_s": stats.median([imp * factor(start, end) for imp, start, end in setup]),
    }
    summary = {"n": len(values), "busy": sum(values), "tail_label": tail_label,
               "beyond": beyond, "classes": _class_table(latencies)}
    return metrics, summary


def traced(workload, seed, seconds, client):
    tracer = tracing.Tracer()
    plain, with_spans = [], []

    def body(index, requests):
        for request in requests:
            plain.append(client.send(request))
        with tracing.instrumented(tracer):
            for k, request in enumerate(requests):
                with_spans.append(client.send(request, tracer, f"{index}.{k}"))

    rounds, _ = run_rounds(workload, seed, seconds, body)
    return tracer, plain, with_spans, rounds


def _fmt(value):
    return f"{value:.6g}"


def report_end_to_end(args, metrics, raw, summary, run, client, probe):
    rounds, elapsed = run
    probes, probe_median, probe_spread = probe.summary()
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{rounds} rounds, {summary['n']} requests in {elapsed:.2f} s")
    print(f"  speed probe: {probes} samples, median {probe_median * 1e6:.1f} us, quartile "
          f"spread {probe_spread:.3f}; reference {speed.REFERENCE_CPU_S * 1e6:.1f} us")
    print("  timings in seconds at the reference speed, raw timings in brackets")
    print(f"  throughput_rps  {_fmt(metrics['throughput_rps'])} 1/s "
          f"[{_fmt(raw['throughput_rps'])}]  "
          f"({summary['n']} requests / {summary['busy']:.3f} s in requests)")
    print(f"  request_p50_s   {_fmt(metrics['request_p50_s'])} s "
          f"[{_fmt(raw['request_p50_s'])}]  (n={summary['n']})")
    tail_note = (f"{summary['tail_label']}, {summary['beyond']} samples beyond"
                 if summary["tail_label"] != "max"
                 else "run maximum: too few samples for p90 with 10 beyond")
    print(f"  request_tail_s  {_fmt(metrics['request_tail_s'])} s "
          f"[{_fmt(raw['request_tail_s'])}]  ({tail_note}, n={summary['n']})")
    print(f"  failed_ratio    {_fmt(len(client.failures) / client.attempted)}  "
          f"({len(client.failures)} / {client.attempted} attempted, warm-up included)")
    print(f"  setup_s         {_fmt(metrics['setup_s'])} s [{_fmt(raw['setup_s'])}]  "
          f"(median import of aomoto_lab.cli over {SETUP_REPEATS} fresh interpreters)")
    print(f"  peak_rss_mb     {_fmt(metrics['peak_rss_mb'])} MB")
    print("  per request class:  n  median_s")
    for label, n, med in summary["classes"]:
        print(f"    {label:<24} {n:>3}  {_fmt(med)}")


def report_traced(args, tracer, plain, with_spans, rounds):
    records = tracer.records
    own = tracing.self_times(records)
    balance = tracing.request_balance(records, own)
    table = tracing.per_span(records, own)
    layers = tracing.per_layer_self(table)
    n = len(with_spans)
    derived = tracing.derived_counts(records, tracer.counts, n)
    overhead = stats.median(with_spans) - stats.median(plain)

    print(f"workload {args.workload}, seed {args.seed}: traced, {rounds} round pairs, "
          f"{n} traced requests, {len(records)} spans")
    print(f"  request_p50_s untraced {_fmt(stats.median(plain))} s, traced "
          f"{_fmt(stats.median(with_spans))} s, tracing overhead {_fmt(overhead)} s")
    print(f"  self times of each request's spans sum to its traced wall time "
          f"within {balance:.3g} s")
    print("  span                                    calls/req    busy_s/req    self_s/req")
    for name, (calls, busy, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"    {name:<38} {calls / n:>9.4g} {busy / n:>13.6g} {self_s / n:>13.6g}")
    print("  self time per layer (s/req):")
    for layer, total in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {total / n:.6g}")
    top = sorted(table.items(), key=lambda kv: -kv[1][2])[:5]
    print("  top self-time spans: " + ", ".join(f"{name} {s / n:.4g} s/req"
                                               for name, (_, _, s) in top))
    for name, (value, note) in derived.items():
        print(f"  {name} = {_fmt(value)}  ({note})")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for request, span_id, parent, name, start, end in records:
            fh.write(json.dumps({"request": request, "span": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end,
                                 "self": own[span_id]}) + "\n")
    print(f"  spans written to {path.relative_to(ROOT)}")

    values = {}
    for span in tracing.SPANS:
        calls, busy, self_s = table.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls / n
        values[f"{span}.busy_s"] = busy / n
        values[f"{span}.self_s"] = self_s / n
    for name, (value, _) in derived.items():
        values[name] = value
    for layer in tracing.LAYERS:
        values[f"layer.{layer}.self_s"] = layers[layer] / n
    values[tracing.OVERHEAD] = overhead
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.per_layer_spec()}
    return metrics, balance


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = _load_program()
    precisions = (workloads.KZ_PRECISION,) if args.workload == "kz-monodromy" else ()
    client = Client(cli, oracles.Oracle(precisions))
    for request in workloads.warmup_requests(args.workload, args.seed):
        client.send(request)

    balanced = True
    if args.trace:
        tracer, plain, with_spans, rounds = traced(args.workload, args.seed,
                                                    args.seconds, client)
        metrics, balance = report_traced(args, tracer, plain, with_spans, rounds)
        balanced = balance < 1e-6
    else:
        speed.pin_to_one_processor()
        with speed.SpeedProbe() as probe:
            setup = measure_setup()
            samples, *run = end_to_end(args.workload, args.seed, args.seconds, client)
        metrics, summary = end_to_end_metrics(samples, setup, probe.factor)
        raw, _ = end_to_end_metrics(samples, setup, lambda start, end: 1.0)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report_end_to_end(args, metrics, raw, summary, run, client, probe)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in metrics.items()}

    for label, config, problems in client.failures:
        print(f"FAILED {label} {json.dumps(config, sort_keys=True)}")
        for problem in problems:
            print("    " + problem.rstrip().replace("\n", "\n    "))
    print(json.dumps({
        "correct": not client.failures and balanced,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
