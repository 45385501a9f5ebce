"""End-to-end and per-layer benchmark of the spanex CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports spanex from ./src and runs
`spanex compile`, then `spanex count` and `spanex enumerate` against the
compiled JSON, in this process and thread.  Inputs come from the seed.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it repeats every job through the library calls the CLI makes,
records spans and op counts, and reports the per-layer metrics.  Outputs
are checked against each other and against the oracles outside the timed
region.  The last line of stdout is one JSON object; scratch files live
in ./.perfbench_out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EXACT_ROUNDS = 1  # op counts and sizes are taken over the first rounds only, so they repeat
PROBE_TIMEOUT_S = 170


def percentile(ordered, q: float) -> float:
    """Linear-interpolated q-th percentile of sorted values."""
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(ordered) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(ordered)
    text = f"p50={percentile(ordered, 50):.4g}"
    if n >= 21:
        text += f" p{100.0 * (n - 11) / (n - 1):.2f}={ordered[n - 11]:.4g}"
    return text + f" n={n}"


def _spin() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - started


def pin_quietest_cpu(cpus: List[int]) -> None:
    """Pin this process to whichever of `cpus` runs a fixed short loop
    fastest right now.  On a shared VM each vCPU has its own slow spells
    (neighbours on the host), which the guest scheduler cannot see."""
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Bench:
    """One workload and seed: rule book, documents, jobs and their checks."""

    def __init__(self, api, workload, seed: int, workdir: Path):
        self.api = api
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rules = workloads.rule_book(workload, seed)
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.compiled = {r.name: str(workdir / f"{r.name}.json") for r in self.rules}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    # -- bookkeeping ------------------------------------------------------

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def run(self, argv):
        self.settle()
        return self.api.run_cli(argv)

    def settle(self) -> None:
        """Before a timed job: collect the previous job's garbage and move
        to the quietest CPU, outside the timed region."""
        gc.collect()
        pin_quietest_cpu(self.cpus)

    def write_documents(self, docs: Dict[str, str], tag: str) -> Dict[str, str]:
        paths = {}
        for cls, text in docs.items():
            path = self.workdir / f"{tag}-{cls}.txt"
            path.write_text(text, encoding="utf-8")
            paths[cls] = str(path)
        return paths

    def input_digest(self) -> str:
        """Digest of the rule book, the oracle sample and the exact rounds."""
        payload = [[(r.name, r.kind, r.text, r.alphabet, r.strategy, r.limit)
                    for r in workloads.rule_book(self.workload, self.seed)],
                   workloads.oracle_documents(self.workload, self.seed),
                   [workloads.round_documents(self.workload, self.seed, i)
                    for i in range(EXACT_ROUNDS)]]
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    # -- jobs -------------------------------------------------------------

    def compile_rule(self, rule) -> float:
        """`spanex compile` of one rule; returns the job time."""
        run = self.run(self.api.compile_argv(rule, self.compiled[rule.name]))
        self.record(run.code == 0, f"compile {rule.name}: exit {run.code} {run.err.text()[-200:]}")
        return run.seconds

    def compile_all(self) -> float:
        """`spanex compile` for every rule; returns the summed job time."""
        return sum(self.compile_rule(rule) for rule in self.rules)

    def count_job(self, rule, doc: str, oracle: Optional[int] = None):
        run = self.run(self.api.count_argv(self.compiled[rule.name], doc))
        value = None
        if run.code == 0:
            try:
                value = self.api.count_value(run)
            except ValueError:
                pass
        self.record(value is not None and oracle in (None, value),
                    f"count {rule.name} {doc}: exit {run.code}, {value} (oracle {oracle})")
        return run, value

    def check_lines(self, rule, doc: str, lines: List[str], expected: Optional[int], code=0) -> bool:
        """Line count equals the count result (capped by --limit), no duplicates."""
        if expected is not None and rule.limit is not None:
            expected = min(expected, rule.limit)
        ok = code == 0 and expected == len(lines) and len(set(lines)) == len(lines)
        self.record(ok, f"enumerate {rule.name} {doc}: exit {code}, "
                        f"{len(lines)} lines ({len(set(lines))} distinct), count {expected}")
        return ok

    def enumerate_job(self, rule, doc: str, expected: Optional[int]):
        run = self.run(self.api.enumerate_argv(self.compiled[rule.name], doc, rule.limit))
        lines, stamps = run.output_lines()
        self.check_lines(rule, doc, lines, expected, run.code)
        return run, lines, stamps

    def oracle_check(self) -> None:
        """Full enumerations and counts of short documents, compared as sets
        with the reference semantics (regex rules) or the brute-force run
        search (algebra rules)."""
        api = self.api
        docs = workloads.oracle_documents(self.workload, self.seed)
        for cls, texts in docs.items():
            for i, text in enumerate(texts):
                path = self.write_documents({cls: text}, f"oracle{i}")[cls]
                for rule in (r for r in self.rules if r.doc_class == cls):
                    if rule.kind == "rgx":
                        expected = api.reference_keys(rule.text, rule.alphabet, text)
                    else:
                        expected = api.algebra_keys(rule.tree, rule.alphabet, text)
                    run = self.run(api.enumerate_argv(self.compiled[rule.name], path, None))
                    got = [api.line_key(line) for line in run.output_lines()[0]] if run.code == 0 else []
                    self.record(run.code == 0 and len(set(got)) == len(got) and set(got) == expected,
                                f"oracle enumerate {rule.name} on {text!r}: exit {run.code}, "
                                f"{len(got)} lines, oracle {len(expected)}")
                    self.count_job(rule, path, oracle=len(expected))

    def rounds(self, seconds: float, body, after_round=None) -> int:
        """Whole rounds (each document class once, every rule) until
        `seconds` have passed; at least EXACT_ROUNDS.  Round `index` uses
        document set `index % doc_sets`."""
        deadline = self.api.clock() + seconds
        index = 0
        while index < EXACT_ROUNDS or self.api.clock() < deadline:
            doc_set = index % self.workload.doc_sets
            docs = workloads.round_documents(self.workload, self.seed, doc_set)
            paths = self.write_documents(docs, f"set{doc_set}")
            for rule in self.rules:
                if rule.queried:
                    body(index, rule, paths[rule.doc_class], len(docs[rule.doc_class]))
            if after_round is not None:
                after_round(index)
            index += 1
        return index

    # -- the untraced run -------------------------------------------------

    def measure(self, seconds: float) -> Dict:
        """End-to-end metrics.  Rounds cycle through the workload's
        `doc_sets` document sets, so each job (rule, document) recurs every
        few seconds through the run.  Each job's time is the least of its
        repeats, and a rate is the chars or lines of all jobs over the sum
        of their times: on a shared 2-vCPU VM the same job ran up to 1.7x
        slower in spells of a fraction of a second to minutes, noise only
        ever adds time, and short jobs repeated far apart each catch a
        quiet moment far more often than whole rounds do.  ttfo_ms_p50 is
        the median over jobs of each job's least time to first output,
        and delay_us_p50 the median over jobs of each job's least median
        gap between outputs.  The pooled tails are printed above the
        metrics.  Set-up is repeated at times spread over the run and
        reported as the median."""
        peak_rss_mb = self.rss_probe()
        started = self.api.clock()
        setups = [self.compile_all()]
        self.oracle_check()
        reps = self.workload.setup_reps
        # (rule, document set) -> chars, outputs and the times of each repeat
        jobs: Dict[Tuple[str, int], Dict] = {}
        pooled = {"ttfo": [], "gaps": array("d")}

        def body(index, rule, doc, chars):
            job = jobs.setdefault((rule.name, index % self.workload.doc_sets),
                                  {"chars": chars, "outputs": None, "count_s": [], "enum_s": [],
                                   "ttfo_ms": [], "gap_us": []})
            run, expected = self.count_job(rule, doc)
            job["count_s"].append(run.seconds)
            run, lines, stamps = self.enumerate_job(rule, doc, expected)
            self.record(job["outputs"] in (None, len(lines)),
                        f"enumerate {rule.name} {doc}: {len(lines)} lines, {job['outputs']} before")
            job["outputs"] = len(lines)
            job["enum_s"].append(run.seconds)
            if stamps:
                job["ttfo_ms"].append((stamps[0] - run.started) * 1e3)
                pooled["ttfo"].append(job["ttfo_ms"][-1])
            if len(stamps) > 1:
                gaps = array("d", ((b - a) * 1e6 for a, b in zip(stamps, stamps[1:])))
                job["gap_us"].append(statistics.median(gaps))
                pooled["gaps"].extend(gaps)

        def after_round(index):
            if len(setups) < reps and self.api.clock() - started >= seconds * len(setups) / reps:
                setups.append(self.compile_all())

        rounds = self.rounds(seconds, body, after_round)
        while len(setups) < reps:
            setups.append(self.compile_all())
        (OUT_DIR / f"samples-{self.workload.name}-{self.seed}.json").write_text(
            json.dumps({"setup_s": setups, "jobs": {f"{r}/{d}": v for (r, d), v in jobs.items()}}),
            encoding="utf-8")

        def least(key: str) -> List[float]:
            return [min(job[key]) for job in jobs.values() if job[key]]

        chars = sum(job["chars"] for job in jobs.values())
        outputs = sum(job["outputs"] for job in jobs.values())
        enum_s, count_s = sum(least("enum_s")), sum(least("count_s"))
        repeats = sorted(len(job["enum_s"]) for job in jobs.values())
        report = [f"rounds {rounds}, jobs {len(jobs)}, repeats per job {repeats[0]}-{repeats[-1]}, "
                  f"setups {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups) + " s",
                  f"ttfo_ms over jobs: {tail(sorted(pooled['ttfo']))}",
                  f"delay_us over gaps: {tail(sorted(pooled['gaps']))}"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "enum_chars_per_s": (chars / enum_s, "chars/s"),
            "outputs_per_s": (outputs / enum_s, "lines/s"),
            "count_chars_per_s": (chars / count_s, "chars/s"),
            "delay_us_p50": (statistics.median(least("gap_us") or [float("nan")]), "us"),
            "ttfo_ms_p50": (statistics.median(least("ttfo_ms") or [float("nan")]), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return {"metrics": metrics, "report": report, "exact": {}}

    def rss_probe(self) -> float:
        """ru_maxrss of a fresh process that compiles the rule book and runs
        one round with enumerate writing to a file."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload.name,
               "--seed", str(self.seed), "--rss-probe"]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            self.record(False, f"memory probe failed: {exc}")
            return float("nan")
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        return result["peak_rss_mb"]

    def probe_memory(self) -> Dict:
        self.compile_all()
        docs = workloads.round_documents(self.workload, self.seed, 0)
        paths = self.write_documents(docs, "probe")
        outputs = []
        for rule in (r for r in self.rules if r.queried):
            _, expected = self.count_job(rule, paths[rule.doc_class])
            out = str(self.workdir / f"probe-{rule.name}.ndjson")
            run = self.run(self.api.enumerate_argv(self.compiled[rule.name],
                                                   paths[rule.doc_class], rule.limit, out))
            outputs.append((rule, out, expected, run.code))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rule, out, expected, code in outputs:
            lines = Path(out).read_text(encoding="utf-8").splitlines() if code == 0 else []
            self.check_lines(rule, out, lines, expected, code)
        return {"peak_rss_mb": peak, "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}

    # -- the traced run ---------------------------------------------------

    def trace(self, seconds: float) -> Dict:
        api = self.api
        tracer = tracing.Tracer(api.clock)
        pairs: List[Tuple[float, float]] = []  # (untraced, traced) seconds of one job
        compile_jobs: List[List[int]] = []
        sizes: Dict[str, Dict[str, int]] = {}
        for _ in range(self.workload.setup_reps):
            jobs = []
            for rule in self.rules:
                untraced = self.compile_rule(rule)
                self.settle()
                sizes[rule.name] = api.traced_compile(tracer, api.compile_argv(rule, self.compiled[rule.name]))
                jobs.append(tracer.last_job())
                pairs.append((untraced, tracer.roots[jobs[-1]].busy))
            compile_jobs.append(jobs)
        self.oracle_check()

        acc = {"count_chars": 0, "enum_chars": 0, "fetched": 0, "lines": 0, "raw_s": 0.0}
        exact = {"ops": 0, "nodes": 0, "appends": 0, "chars": 0, "count_ops": 0,
                 "count_chars": 0, "fetched": 0, "enum_work": 0, "max_work": 0,
                 "reached": 0, "states": 0}
        job_kinds: Dict[int, str] = {}
        exact_jobs: List[int] = []

        def body(index, rule, doc, chars):
            first = index < EXACT_ROUNDS
            run, expected = self.count_job(rule, doc)
            counter = api.new_counter()
            self.settle()
            total = api.traced_count(tracer, api.count_argv(self.compiled[rule.name], doc), counter)
            job = tracer.last_job()
            self.record(total == expected, f"traced count {rule.name} {doc}: {total} vs {expected}")
            job_kinds[job] = "count"
            acc["count_chars"] += chars
            pairs.append((run.seconds, tracer.roots[job].busy))
            if first:
                exact_jobs.append(job)
                exact["count_ops"] += api.count_ops(counter)
                exact["count_chars"] += chars

            run, lines, _ = self.enumerate_job(rule, doc, expected)
            counter = api.new_counter()
            self.settle()
            argv = api.enumerate_argv(self.compiled[rule.name], doc, rule.limit)
            traced = api.traced_enumerate(tracer, argv, counter)
            job = tracer.last_job()
            self.check_lines(rule, f"traced {doc}", traced.lines, expected)
            job_kinds[job] = "enumerate"
            acc["enum_chars"] += chars
            acc["fetched"] += traced.fetched
            acc["lines"] += len(traced.lines)
            pairs.append((run.seconds, tracer.roots[job].busy))
            raw_s, enum_work = api.raw_walk(traced)
            acc["raw_s"] += raw_s
            if first:
                exact_jobs.append(job)
                counts = api.preprocess_counts(counter)
                exact["ops"] += counts["ops"]
                exact["nodes"] += counts["nodes"]
                exact["appends"] += counts["appends"]
                exact["chars"] += chars
                exact["fetched"] += traced.fetched
                exact["enum_work"] += enum_work
                exact["max_work"] = max(exact["max_work"], api.max_inter_output_work(traced))
                reached, states = traced.states_reached()
                exact["reached"] += reached
                exact["states"] += states

        rounds = self.rounds(seconds, body)
        tracer.dump(str(OUT_DIR / f"trace-{self.workload.name}-{self.seed}.json"))
        return self.layer_metrics(tracer, rounds, compile_jobs, sizes, job_kinds, exact_jobs,
                                  acc, exact, pairs)

    def layer_metrics(self, tracer, rounds, compile_jobs, sizes, job_kinds, exact_jobs,
                      acc, exact, pairs) -> Dict:
        spans = tracer.spans
        own = tracer.self_times()
        roots = tracer.roots

        def busy(name: str, jobs) -> float:
            jobs = set(jobs)
            return sum(s.busy for s in spans if s.name == name and s.job in jobs)

        def calls(name: str, jobs) -> int:
            jobs = set(jobs)
            return sum(s.calls for s in spans if s.name == name and s.job in jobs)

        def per_setup_ms(name: str) -> float:
            return statistics.median(busy(name, jobs) for jobs in compile_jobs) * 1e3

        run_jobs = list(job_kinds)
        count_jobs = [j for j, k in job_kinds.items() if k == "count"]
        enum_jobs = [j for j, k in job_kinds.items() if k == "enumerate"]
        n_jobs = len(run_jobs)
        rgx_rules = [r.name for r in self.rules if r.kind == "rgx"]
        expr_rules = [r.name for r in self.rules if r.kind == "expr"]
        walk_s = busy("engine.walk", enum_jobs)
        run_job_set = set(run_jobs)
        root_self = sum(own[i] for i, s in enumerate(spans) if s.parent is None and s.job in run_job_set)

        # Self times by layer, with the stream walk split into the raw DAG
        # walk (engine) and Mapping/Span building (model).
        layers: Dict[str, float] = {}
        for per_job in tracer.layer_self_by_job().values():
            for layer, value in per_job.items():
                layers[layer] = layers.get(layer, 0.0) + value
        raw_s = min(acc["raw_s"], walk_s)
        layers["model"] = layers.get("model", 0.0) + walk_s - raw_s
        layers["engine"] -= walk_s - raw_s
        self_sum = sum(layers.values())
        job_sum = sum(r.busy for r in roots.values())
        untraced_s = sum(u for u, _ in pairs)
        overhead = sum(t for _, t in pairs) - untraced_s
        if abs(self_sum - job_sum) > 1e-6 * max(1.0, job_sum):
            self.record(False, f"layer self times {self_sum:.6f}s do not add up to job time {job_sum:.6f}s")

        fetched = max(acc["fetched"], 1)
        metrics = {
            "rgx.parse_ms": (per_setup_ms("rgx.parse"), "ms"),
            "rgx.to_va_ms": (per_setup_ms("rgx.to_va"), "ms"),
            "rgx.va_states": (sum(sizes[r]["va_states"] for r in rgx_rules), "count"),
            "transform.pipeline_ms": (per_setup_ms("transform.pipeline"), "ms"),
            "transform.det_states": (sum(sizes[r]["det_states"] for r in rgx_rules), "count"),
            "transform.det_transitions": (sum(sizes[r]["det_transitions"] for r in rgx_rules), "count"),
            "transform.states_reached_frac": (exact["reached"] / exact["states"], "ratio"),
            "algebra.compile_ms": (per_setup_ms("algebra.compile"), "ms"),
            "algebra.det_states": (sum(sizes[r]["det_states"] for r in expr_rules), "count"),
            "automata.dump_ms": (per_setup_ms("automata.dump"), "ms"),
            "automata.load_ms": (busy("automata.load", run_jobs) / n_jobs * 1e3, "ms"),
            "automata.classify_ms": (busy("automata.classify", run_jobs) / n_jobs * 1e3, "ms"),
            "automata.classify_calls_per_job": (calls("automata.classify", exact_jobs) / len(exact_jobs), "count"),
            "engine.preprocess_us_per_char": (busy("engine.preprocess", enum_jobs) / acc["enum_chars"] * 1e6, "us"),
            "engine.preprocess_ops_per_char": (exact["ops"] / exact["chars"], "ops"),
            "engine.dag_nodes_per_char": (exact["nodes"] / exact["chars"], "nodes"),
            "engine.appends_per_char": (exact["appends"] / exact["chars"], "appends"),
            "engine.enum_us_per_output": (raw_s / fetched * 1e6, "us"),
            "engine.enum_work_per_output": (exact["enum_work"] / max(exact["fetched"], 1), "ops"),
            "engine.max_inter_output_work": (exact["max_work"], "ops"),
            "model.mapping_us_per_output": ((walk_s - raw_s) / fetched * 1e6, "us"),
            "cli.encode_us_per_output": (busy("cli.encode", enum_jobs) / max(acc["lines"], 1) * 1e6, "us"),
            "cli.self_ms_per_job": (root_self / n_jobs * 1e3, "ms"),
            "counting.us_per_char": (busy("counting.count", count_jobs) / acc["count_chars"] * 1e6, "us"),
            "counting.ops_per_char": (exact["count_ops"] / exact["count_chars"], "ops"),
            # Medians over job pairs: a slow spell of the machine hits one
            # side of a pair only now and then.
            "trace.overhead_ms_per_job": (statistics.median(t - u for u, t in pairs) * 1e3, "ms"),
            "trace.overhead_frac": (statistics.median(t / u - 1 for u, t in pairs), "ratio"),
        }
        report = [f"rounds {rounds}, job pairs {len(pairs)}: untraced {untraced_s:.4f}s, "
                  f"traced {untraced_s + overhead:.4f}s, difference {overhead:.4f}s",
                  "layer self time (s): " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(layers.items()))
                  + f"; sum {self_sum:.4f} = traced jobs {job_sum:.4f}"]
        exact_values = {name: metrics[name][0] for name in (
            "engine.preprocess_ops_per_char", "engine.max_inter_output_work",
            "counting.ops_per_char", "transform.det_states", "automata.classify_calls_per_job")}
        return {"metrics": metrics, "report": report, "exact": exact_values}

    # -- same seed, same inputs and counts --------------------------------

    def self_check(self, exact: Dict) -> None:
        """Inputs must hash the same when drawn twice here and in every run
        with this seed and code; the exact counts must repeat likewise."""
        digest = self.input_digest()
        self.record(digest == self.input_digest(), "inputs differ when drawn twice from one seed")
        path = OUT_DIR / "selfcheck" / f"{self.workload.name}-{self.seed}-{source_digest()[:16]}.json"
        current = {"inputs": digest, **exact}
        if path.is_file():
            previous = json.loads(path.read_text(encoding="utf-8"))
            for key in sorted(set(previous) & set(current)):
                self.record(previous[key] == current[key],
                            f"{key} differs from an earlier run with this seed: "
                            f"{previous[key]} vs {current[key]}")
            current = {**previous, **current}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spanex" / "__init__.py").is_file():
        print(f"error: no spanex package under {SRC}; run from a spanex checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adapter  # imports spanex from ./src

    if adapter.PACKAGE_DIR != (SRC / "spanex").resolve():
        print(f"error: spanex was imported from {adapter.PACKAGE_DIR}, not ./src", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(adapter, workload, args.seed, workdir)
        if args.rss_probe:
            print(json.dumps(bench.probe_memory()))
            return 0
        if args.trace:
            outcome = bench.trace(args.seconds)
        else:
            outcome = bench.measure(args.seconds)
        bench.self_check(outcome["exact"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed} trace {args.trace}")
    for line in outcome["report"]:
        print(f"# {line}")
    print(f"# failed_frac {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} of {bench.attempted} jobs)")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
