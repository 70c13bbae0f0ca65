"""
Runs, checks and metrics of the braid3 benchmark; bench/run.py is the
command line.  Importing this module imports braid3 from sys.path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
import pipeline
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: every run makes at least this many passes over its batch
MIN_PASSES = 3

#: iterations of the two reference loops, and the geometric mean of their
#: times on an idle core of the shared 2-vCPU virtual machine the bounds
#: were set on (1.0 ms and 0.69 ms); timings are scaled to that speed (see
#: Passes)
REFERENCE_LOOPS = 15000
REFERENCE_ALLOCS = 2500
REFERENCE_NOMINAL_S = 0.83e-3

#: fresh interpreters timed for setup_s before each pass, after one that
#: fills the bytecode cache
SETUP_PER_PASS = 3
SETUP_CODE = "import braid3; braid3.build_report(braid3.parse('a b'))"

#: candidate percentiles for the tail latency, in tenths, highest first
TAIL_PERMILLE = (999, 990, 900, 750)


def _arithmetic() -> int:
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return acc


def _allocation() -> int:
    out = []
    for i in range(REFERENCE_ALLOCS):
        out.append((i, str(i), {"k": i}))
    return len(out)


def reference_s() -> float:
    """How fast the host runs Python right now: the geometric mean of two
    fixed pure-Python loops that share nothing with braid3, each the
    fastest of two runs.  One does integer arithmetic and one allocates
    small objects; braid3 does both, and on a noisy host their mean
    tracks its speed better than either loop alone."""
    product = 1.0
    for loop in (_arithmetic, _allocation):
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            loop()
            best = min(best, perf_counter() - t0)
        product *= best
    return product ** 0.5


def setup_time() -> float:
    """Time for a fresh interpreter to import braid3 and finish one tiny
    build_report, scaled to the reference speed like every timing (see
    Passes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed package runs from its bytecode cache, so let the first
    # run write one under src/ even where the caller's environment forbids it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    before = reference_s()
    t0 = perf_counter()
    # a plain blocking wait: waiting with a timeout polls, which would
    # round the measurement to the polling interval
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise RuntimeError(f"setup run exited with {proc.returncode}")
    elapsed = perf_counter() - t0
    return elapsed * REFERENCE_NOMINAL_S / min(before, reference_s())


def tail_permille(samples: int) -> int:
    """The highest candidate percentile, in tenths, that leaves at least
    ten of this many samples beyond it."""
    for permille in TAIL_PERMILLE:
        if samples - -(-samples * permille // 1000) >= 10:
            return permille
    return 500


def percentile(latencies: list[float], permille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[-(-len(ordered) * permille // 1000) - 1]


# ---------------------------------------------------------------------------
# correctness checks; none of them uses braid3's own oracle


def check_report(item, lines, report) -> list[str]:
    data = json.loads(lines[0])
    problems = []
    for cert, key in ((report.garside_certificate, "garside_form"),
                      (report.murasugi_certificate, "murasugi_form")):
        if not oracle.conjugates(cert.conjugator.display(), item.text, data[key]["display"]):
            problems.append(f"{key} certificate is wrong")
    components = oracle.components(item.text)
    if data["components"] != components or data["is_knot"] != (components == 1):
        problems.append("component count is wrong")
    return problems


def check_cobordism(item, lines, facts) -> list[str]:
    cert = facts["cert"]
    problems = []
    if not facts["ok"]:
        problems.append("honest certificate rejected")
    if facts["back"] != cert:
        problems.append("JSON round trip changed the certificate")
    if cert.euler_char != -len(cert.moves) or cert.genus != Fraction(len(cert.moves), 2):
        problems.append("Euler characteristic or genus does not match the moves")
    start = oracle.image(cert.start.display())
    if item.kind == "twist":
        if start != oracle.image(f"{item.text} b^{2 * item.n}"):
            problems.append("twist start word is not gamma b^2n")
    else:
        given = oracle.image(item.text)
        # a cyclic rotation keeps writhe and trace
        if (start[4], start[0] + start[3]) != (given[4], given[0] + given[3]):
            problems.append("start word is not conjugate to the input")
    if item.tamper and not facts["rejected"]:
        problems.append(f"tampered {item.tamper} accepted")
    return problems


# ---------------------------------------------------------------------------
# runs


class Passes:
    """Repeated passes over one batch of items, timed against the host.

    A shared 2-vCPU virtual machine changes speed by up to a third from
    one second to the next, and its best speed drifts from minute to
    minute, so a raw timing measures the host as much as braid3.  Two
    things take the host out:

    * The batch is cut into chunks of about a tenth of a second.  The
      reference is read just before and just after each chunk, and the
      chunk's time is scaled by REFERENCE_NOMINAL_S over the faster of the
      two readings, so it reads as if the host ran at its nominal speed.
    * Every pass times each chunk again, and for the throughput and the
      median latency each chunk counts with its fastest scaled pass.

    The tail latency is not chosen by speed: it pools the latencies of
    every pass, each scaled by its own chunk's reference reading, so
    slowness that shows in only some passes, such as a garbage-collection
    pause, stays in it.

    A chunk's time is the sum of its items' latencies, garbage collection
    included; checks and the reference run outside it.
    """

    def __init__(self, batch: list, chunk: int, check) -> None:
        self.batch = batch
        self.chunk = chunk
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[list[str] | None] | None = None
        n_chunks = -(-len(batch) // chunk)
        self.best = [float("inf")] * n_chunks
        self.best_latencies: list[list[float]] = [[] for _ in range(n_chunks)]
        self.pass_latencies: list[list[float]] = []

    def run_pass(self, call) -> None:
        lines: list[list[str] | None] = []
        problems: dict[int, list[str]] = {}
        scaled: list[float] = []
        for c in range(len(self.best)):
            before = reference_s()
            latencies = []
            for idx in range(c * self.chunk, min((c + 1) * self.chunk, len(self.batch))):
                latencies.append(self._item(idx, call, lines, problems))
            scale = REFERENCE_NOMINAL_S / min(before, reference_s())
            scaled.extend(x * scale for x in latencies)
            if sum(latencies) * scale < self.best[c]:
                self.best[c] = sum(latencies) * scale
                self.best_latencies[c] = [x * scale for x in latencies]
        self.pass_latencies.append(scaled)
        if self.reference is None:
            self.reference = lines
        for idx, (want, got) in enumerate(zip(self.reference, lines)):
            if None not in (want, got) and got != want:
                problems.setdefault(idx, []).append("output differs from the first pass")
        self.failed += len(problems)
        self.problems.extend(f"item {idx}: {p}" for idx, ps in problems.items() for p in ps)

    def _item(self, idx: int, call, lines: list, problems: dict) -> float:
        item = self.batch[idx]
        self.attempted += 1
        t0 = perf_counter()
        try:
            out, facts = call(idx, item)
        except Exception as exc:  # an item that raises is a failed item
            latency = perf_counter() - t0
            lines.append(None)
            problems[idx] = [f"{type(exc).__name__}: {exc}"]
            return latency
        latency = perf_counter() - t0
        lines.append(out)
        found = self.check(item, out, facts)
        if found:
            problems[idx] = found
        return latency

    def busy_s(self) -> float:
        return sum(self.best)

    def latencies(self) -> list[float]:
        """Each item's latency in its chunk's fastest pass."""
        return [x for chunk in self.best_latencies for x in chunk]

    def tail_latencies(self) -> list[float]:
        """Every latency of every pass."""
        return [x for lat in self.pass_latencies for x in lat]


def digest(lines: list[list[str] | None]) -> str:
    h = hashlib.sha256()
    for item_lines in lines:
        for line in item_lines or ["<failed>"]:
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def repeat(step, start: float, seconds: float, min_passes: int) -> None:
    """Call step() at least min_passes times, then again while another
    call should still end within `seconds` of `start`."""
    for count in itertools.count(1):
        t0 = perf_counter()
        step()
        now = perf_counter()
        if count >= min_passes and 2 * now - t0 - start > seconds:
            return


def run_untraced(workload, seed: int, start: float, seconds: float) -> tuple[Passes, float]:
    """The passes, and setup_s: the median of the setup runs made before
    each pass, so that they sample the host at several moments."""
    call, check = _calls(workload)
    passes = Passes(_batch(workload, seed), workload.chunk, check)
    setup: list[float] = []
    setup_time()  # fills the bytecode cache

    def step() -> None:
        setup.extend(setup_time() for _ in range(SETUP_PER_PASS))
        passes.run_pass(lambda idx, item: call(item, pipeline.NO_TRACE))

    repeat(step, start, seconds, MIN_PASSES)
    return passes, statistics.median(setup)


def run_traced(workload, seed: int, start: float, seconds: float):
    """Alternate untraced and traced passes over the batch until the time
    is up; counters come from the first traced pass."""
    item_call, check = _calls(workload)
    batch = _batch(workload, seed)
    untraced = Passes(batch, workload.chunk, check)
    traced = Passes(batch, workload.chunk, check)
    tracers: list = []

    def pair() -> None:
        untraced.run_pass(lambda idx, item: item_call(item, pipeline.NO_TRACE))
        if traced.reference is None:
            traced.reference = untraced.reference
        tr = pipeline.Tracer()
        tracers.append(tr)

        def call(idx, item):
            tr.item = idx
            with tr.span("item"):
                return item_call(item, tr)

        with pipeline.instrumented(tr):
            traced.run_pass(call)

    repeat(pair, start, seconds, 1)
    return untraced, traced, tracers


def _batch(workload, seed: int) -> list:
    return list(itertools.islice(workloads.items(workload.name, seed), workload.batch))


def _calls(workload):
    """(item call, check) for the workload's kind."""
    if workload.kind == "report":
        return pipeline.report_item, check_report
    return pipeline.cobordism_item, check_cobordism


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced: Passes, traced: Passes, tracers: list) -> tuple[dict, dict, Counter]:
    """The per-layer metrics: self times per traced pass, the counters of
    the first traced pass, and the tracing overhead.  Apart from them, the
    layer shares of the traced time and the share of inputs that close to
    knots, which describe where the time goes and what the inputs are
    rather than how well braid3 does, so they get no better direction."""
    passes = len(tracers)
    self_s = Counter()
    for tr in tracers:
        self_s.update(tr.self_times())
    traced_s = sum(self_s.values()) / passes
    c = tracers[0].counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("words.parse", "normal_form.split", "normal_form.garside",
                 "normal_form.murasugi", "burau.verify", "invariants.eval",
                 "cli.json", "cobordism.build", "cobordism.verify"):
        put(f"{name}_s", self_s[name] / passes, "s")
    for name, unit in (("words.letters", "letters"), ("words.syllables", "syllables"),
                       ("normal_form.split_letters", "letters"),
                       ("normal_form.delta_gain", "count"),
                       ("normal_form.conjugator_letters", "letters"),
                       ("burau.calls", "count"), ("burau.letters", "letters"),
                       ("cli.json_bytes", "bytes"), ("cobordism.moves", "count")):
        put(name, c[name], unit)
    put("burau.pass_ratio", _ratio(c["burau.passed"], c["burau.calls"]), "ratio")
    put("cobordism.pass_ratio", _ratio(c["cobordism.passed"], c["cobordism.built"]), "ratio")
    put("cobordism.reject_ratio", _ratio(c["cobordism.rejected"], c["cobordism.tampered"]), "ratio")
    # both scaled to the reference speed, so the host's speed cancels out
    put("trace.overhead", traced.busy_s() / untraced.busy_s() - 1, "ratio")

    info = {f"{layer}.share": sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            / passes / traced_s for layer in pipeline.LAYERS}
    info["invariants.knot_share"] = _ratio(c["invariants.knots"], c["invariants.reports"])
    return out, info, c


def report(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload within about `seconds`, print its metrics, and
    return the exit code."""
    start = perf_counter()
    workload = workloads.WORKLOADS[workload_name]
    # Timings are scaled by a reference timed on this process's CPU;
    # keep the process, and the setup runs it starts, on that one CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    n = workload.batch
    if trace:
        untraced, traced, tracers = run_traced(workload, seed, start, seconds)
        runs = [untraced, traced]
        metrics, info, counts = layer_metrics(untraced, traced, tracers)
        print(f"{len(tracers)} untraced and {len(tracers)} traced passes over {n} items; "
              f"self times are wall seconds per traced pass, counters from the first")
        print(f"counts: {json.dumps(dict(sorted(counts.items())))}")
        for name, value in info.items():
            print(f"{name}: {value:.6g} ratio (informational)")
    else:
        run, setup = run_untraced(workload, seed, start, seconds)
        runs = [run]
        tail = run.tail_latencies()
        # set by the samples every run has, so it is the same in every run
        permille = tail_permille(n * MIN_PASSES)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "items_per_s": {"value": n / run.busy_s(), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(run.latencies()) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(tail, permille) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        passes = run.attempted // n
        print(f"{passes} passes over {n} items in chunks of {workload.chunk} in "
              f"{perf_counter() - start:.1f} s; for items_per_s and latency_p50_ms each "
              f"chunk counts with its fastest pass; setup_s is the median of "
              f"{passes * SETUP_PER_PASS} setup runs")
        print(f"latency_tail_ms is p{permille / 10:g} of {len(tail)} samples, "
              f"every item of every pass")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems[:20]:
            print(f"FAILED {problem}")
    print(f"output digest of the {n} items: sha256:{digest(runs[0].reference)}")
    print(f"failed_share: {_ratio(failed, attempted):.6g} ratio ({failed} of {attempted} items)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
