"""slnfib benchmark: oracle-checked CLI jobs, one fresh worker process per job.

Run from the repository root:

    python3 bench/run.py --workload sl2_product --seed 1 --seconds 36 --trace 0

A job is what one user does with one input; every job runs in a fresh
interpreter (bench/worker.py) because every CLI call is a fresh process.  One
client starts workers one at a time (closed loop).  Inputs come from --seed
only; the worker receives the generated inputs.  Every output is checked by
bench/oracles.py, which uses no slnfib code.

--trace 0: one untimed warm-up job, then jobs until --seconds have passed;
           prints the end-to-end metrics.  A job time in `ref` units is its
           seconds divided by the seconds of a fixed reference computation
           timed in the same worker around the job (bench/worker.py), which
           cancels the host's drift in speed between runs; seconds are
           printed too.
--trace 1: a fixed list of jobs, each run untraced once and traced twice
           (bench/tracer.py); prints per-layer metrics per job, checks that
           tracing leaves every report byte-identical and every count the
           same, and states the tracing overhead.

Human-readable lines go first; the last stdout line is one JSON object with
keys correct, attempted, failed, metrics.  Run records (per-job timings and
workload properties) and traced spans go to bench/out/.
"""
from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
OUT = ROOT / "bench" / "out"
WORK = OUT / "work"
JOB_TIMEOUT_S = 45
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Sl2Product:
    """Build a product spec from seeded GA holonomy, then check-foliation and
    pipeline on the dumped file; every 5th job is a negative control."""

    M = 8
    EPS = 0.01
    TRACE_JOBS = 5

    def __init__(self, seed):
        self.seed = seed
        self.edges = oracles.torus2_edges(self.M)

    def job(self, index):
        rng = random.Random(f"sl2_product:{self.seed}:{index}")
        a = math.exp(rng.uniform(0.2, 1.2))
        b = rng.uniform(-1.0, 1.0)
        bump = None
        if isinstance(index, int) and index % 5 == 4:
            u, v, _, _ = self.edges[rng.randrange(len(self.edges))]
            bump = f"{u}-{v}"
        path = str((WORK / "spec.json").relative_to(ROOT))
        inputs = {"a": a, "b": b, "m": self.M, "epsilon": self.EPS, "bump": bump}
        job = {
            "build": {"m": self.M, "a": a, "b": b, "bump": bump, "path": path},
            "commands": [
                ["check-foliation", path],
                ["pipeline", path, "--epsilon", str(self.EPS)],
            ],
        }
        return inputs, job

    check = staticmethod(oracles.check_sl2_product)

    def props(self, inputs, result):
        m = self.M
        out = {"m": m, "vertices": m * m, "edges": 3 * m * m, "q": None, "crossings": None}
        spec = WORK / "spec.json"
        # check-foliation and pipeline both read the spec
        out["input_bytes"] = 2 * spec.stat().st_size if spec.exists() else 0
        try:
            stages = {s["stage"]: s for s in json.loads(result["commands"][1]["stdout"])["stages"]}
            out["q"] = stages["rationalize"]["q"]
            out["crossings"] = oracles.linear_crossings(
                m, stages["circle_map"]["pullback_periods"], stages["fiber_census"]["levels"]
            )
        except (IndexError, KeyError, ValueError):
            pass
        return out


class TischlerT2:
    """tischler on a*dx + b*dy over T^2 (m = 32), with a fixed defect probe.

    |a|, |b| are uniform in [0.2, 2] with random signs.  Forms whose common
    period denominator q would exceed 140 are drawn again, which keeps one job
    under a few seconds.  Jobs cycle through twenty equal-probability bins of
    predicted census crossings (mesh-bound to crossing-bound), visited with
    stride 3, so that every run holds nearly the same mix of cheap and costly
    forms.
    """

    M = 32
    EPS = 0.02
    Q_MAX = 140
    BINS = 20
    TRACE_JOBS = 10
    # ROADMAP item 3 repro: the census gives wrong counts on valid input
    PROBE = {"m": 5, "a": 0.9886863694964385, "b": 1.6376747351482408, "epsilon": 0.01}

    def __init__(self, seed):
        self.seed = seed
        self.edges = oracles.torus2_edges(self.M)
        ref = random.Random("tischler_t2:bins")
        work = sorted(w for _, _, w in (self._draw(ref) for _ in range(2000)) if w is not None)
        self.bin_edges = [work[len(work) * k // self.BINS] for k in range(1, self.BINS)]

    def _draw(self, rng):
        """A form (a, b) and its predicted census crossings, None if q > Q_MAX."""
        a = rng.uniform(0.2, 2.0) * rng.choice((-1, 1))
        b = rng.uniform(0.2, 2.0) * rng.choice((-1, 1))
        tiebreak = rng.random()
        ra, rb = convergent(a, self.EPS), convergent(b, self.EPS)
        q = oracles.lcm((ra.denominator, rb.denominator))
        if q > self.Q_MAX:
            return a, b, None
        pa, pb = int(q * ra), int(q * rb)
        work = oracles.CENSUS_LEVELS * self.M * (abs(pa) + abs(pb) + abs(pa + pb))
        return a, b, work + tiebreak

    @staticmethod
    def write_form(path, m, a, b, edges):
        obj = {
            "torus": {"d": 2, "m": m},
            "cochain": {f"{u}-{v}": (a * ex + b * ey) / m for u, v, ex, ey in edges},
        }
        with open(ROOT / path, "w") as fh:
            json.dump(obj, fh)

    def job(self, index):
        rng = random.Random(f"tischler_t2:{self.seed}:{index}")
        want = 3 * index % self.BINS if isinstance(index, int) else None
        for _ in range(100000):
            a, b, w = self._draw(rng)
            if w is not None and (want is None or bisect.bisect_right(self.bin_edges, w) == want):
                break
        else:
            raise RuntimeError(f"no form drawn for bin {want}")
        path = str((WORK / "form.json").relative_to(ROOT))
        self.write_form(path, self.M, a, b, self.edges)
        inputs = {"a": a, "b": b, "m": self.M, "epsilon": self.EPS}
        return inputs, {"build": None, "commands": [["tischler", path, "--epsilon", str(self.EPS)]]}

    def probe(self):
        p = self.PROBE
        path = str((WORK / "probe.json").relative_to(ROOT))
        self.write_form(path, p["m"], p["a"], p["b"], oracles.torus2_edges(p["m"]))
        return dict(p), {
            "build": None,
            "commands": [["tischler", path, "--epsilon", str(p["epsilon"])]],
        }

    check = staticmethod(oracles.check_tischler_t2)

    def props(self, inputs, result):
        m = inputs["m"]
        out = {"m": m, "vertices": m * m, "edges": 3 * m * m, "q": None, "crossings": None}
        path = ROOT / result["commands"][0]["argv"][1]
        out["input_bytes"] = path.stat().st_size if path.exists() else 0
        try:
            rep = json.loads(result["commands"][0]["stdout"])
            out["q"] = rep["q"]
            out["crossings"] = oracles.linear_crossings(
                m, rep["pullback_periods"], oracles.census_levels()
            )
        except (IndexError, KeyError, ValueError):
            pass
        return out


class Brackets:
    """verify-brackets --n 5; the input is fixed, the seed only labels the run."""

    N = 5
    TRACE_JOBS = 3

    def __init__(self, seed):
        self.table = oracles.BracketTable(self.N)

    def job(self, index):
        argv = ["verify-brackets", "--n", str(self.N)]
        return {"n": self.N}, {"build": None, "commands": [argv]}

    def check(self, inputs, result):
        return self.table.check(result)

    def props(self, inputs, result):
        return {"n": self.N, "vertices": 0, "edges": 0, "q": None, "crossings": None, "input_bytes": 0}


WORKLOADS = {"sl2_product": Sl2Product, "tischler_t2": TischlerT2, "brackets": Brackets}


def convergent(x, eps):
    """First continued-fraction convergent p/q of x with |x - p/q| <= eps."""
    exact = Fraction(x)
    a, b = exact.numerator, exact.denominator
    p0, p1, q0, q1 = 0, 1, 1, 0
    while True:
        t, r = divmod(a, b)
        p0, p1 = p1, t * p1 + p0
        q0, q1 = q1, t * q1 + q0
        if abs(Fraction(p1, q1) - exact) <= eps or r == 0:
            return Fraction(p1, q1)
        a, b = b, r


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(job, env):
    """Run one job in a fresh worker; returns (result, error)."""
    t_spawn = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timeout after {JOB_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        return None, f"worker exit {proc.returncode}: {tail}"
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_imported"] - t_spawn
    return result, None


class Runner:
    def __init__(self, name, seed, env):
        self.name = name
        self.seed = seed
        self.env = env
        self.workload = WORKLOADS[name](seed)

    def run(self, index, inputs, job, trace=False, spans_path=None):
        job = dict(job, id=f"{self.name}-s{self.seed}-{index}", trace=int(trace), spans_path=spans_path)
        result, error = run_worker(job, self.env)
        rec = {"index": index, "inputs": inputs, "ok": False, "reason": error}
        if result is None:
            return rec, None
        try:
            rec["reason"] = self.workload.check(inputs, result)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            rec["reason"] = f"report has an unexpected shape: {e!r}"
        rec["ok"] = rec["reason"] is None
        rec["setup_s"] = result["setup_s"]
        rec["job_s"] = result["job_s"]
        rec["ref_s"] = result["ref_s"]
        rec["build_s"] = result["build_s"]
        rec["cmd_s"] = {c["argv"][0]: c["seconds"] for c in result["commands"]}
        rec["codes"] = [c["code"] for c in result["commands"]]
        rec["rss_mib"] = result["rss_mib"]
        rec["props"] = self.workload.props(inputs, result)
        return rec, result

    def warm_up(self):
        """One untimed job; a worker that cannot run at all ends the run."""
        inputs, job = self.workload.job("warmup")
        rec, result = self.run("warmup", inputs, job)
        if result is None:
            sys.exit(f"bench: warm-up job could not run: {rec['reason']}")
        return rec

    def probe(self):
        """The known-defect probe, outside the measured jobs; None if absent."""
        if not hasattr(self.workload, "probe"):
            return None
        inputs, job = self.workload.probe()
        rec, result = self.run("probe", inputs, job)
        rec["bad_levels"] = oracles.CENSUS_LEVELS
        if result is not None and result["commands"] and result["commands"][0]["stdout"]:
            try:
                counts = json.loads(result["commands"][0]["stdout"])["fiber_components"]
                rec["bad_levels"] = sum(c != 3 for c in counts)
                rec["fiber_components"] = counts
            except (ValueError, KeyError):
                pass
        return rec


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def env_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(runner, seconds):
    """Closed loop of fresh-worker jobs for `seconds`; end-to-end metrics."""
    runner.warm_up()
    probe = runner.probe()
    records = []
    t_begin = perf_counter()
    index = 0
    while perf_counter() - t_begin < seconds:
        inputs, job = runner.workload.job(index)
        records.append(runner.run(index, inputs, job)[0])
        index += 1
    timed = [r for r in records if "job_s" in r]
    passed = sum(r["ok"] for r in records)
    total_s = sum(r["job_s"] for r in timed)
    total_ref = sum(r["job_s"] / r["ref_s"] for r in timed)
    metrics = {
        "jobs_per_ref": (passed / total_ref if total_ref else 0.0, "1/ref"),
        "job_ref.p50": (median(r["job_s"] / r["ref_s"] for r in timed), "ref"),
        "setup_s": (median(r["setup_s"] for r in timed), "s"),
        "peak_rss_mib": (median(r["rss_mib"] for r in timed), "MiB"),
    }
    lines = [
        f"jobs: {len(records)} attempted, {passed} passed, "
        f"fail_ratio {(len(records) - passed) / max(len(records), 1):.4f}"
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}" + (f" ({len(timed)} jobs)" if ".p50" in name else ""))
    lines.append(f"jobs_per_s = {passed / total_s if total_s else 0.0:.6g} 1/s")
    lines.append(f"job_s.p50 = {median(r['job_s'] for r in timed):.6g} s ({len(timed)} jobs)")
    lines.append(f"ref_s.p50 = {median(r['ref_s'] for r in timed):.6g} s (1 ref, the reference computation)")
    if runner.name == "sl2_product":
        for label, pick in (
            ("build_s.p50", lambda r: r["build_s"]),
            ("check_s.p50", lambda r: r["cmd_s"].get("check-foliation")),
            ("pipeline_s.p50", lambda r: r["cmd_s"].get("pipeline")),
        ):
            lines.append(f"{label} = {median(pick(r) for r in timed):.6g} s ({len(timed)} jobs)")
    for key in ("q", "crossings", "input_bytes"):
        vals = [r["props"][key] for r in timed if r["props"].get(key) is not None]
        if vals:
            lines.append(f"property {key}: median {median(vals):g}, max {max(vals):g}")
    for r in records:
        if not r["ok"]:
            lines.append(f"FAILED job {r['index']}: {r['reason']}")
    return records, probe, metrics, lines, True


def layer_metrics(job_traces, props):
    """Per-layer metrics of one traced job (trace summary + job properties)."""
    t = job_traces

    def calls(*names):
        return sum(t["calls"].get(n, 0) for n in names)

    def secs(*names):
        return sum(t["incl_s"].get(n, 0.0) for n in names)

    def layer_self(layer):
        return sum(s for n, s in t["self_s"].items() if n.startswith(layer + "."))

    def kernel(k):
        return sum(n for key, n in t["kernel_calls"].items() if key.startswith(k + "<-"))

    def per(count, base):
        return count / base if base else 0.0

    iwasawa = ("groups.iwasawa_sl2", "groups.iwasawa_sln", "groups.iwasawa_sln_ank")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s/job")
    for name in (
        "serialize.load_foliation_spec",
        "serialize.dump_foliation_spec",
        "serialize.scalar_cochain_from_json",
    ):
        m[f"{name}.s"] = (secs(name), "s/job")
    m["serialize.bytes_in"] = (props["input_bytes"], "bytes/job")
    for name in ("linalg.matrix_log", "linalg.matrix_exp", "linalg.qr_positive"):
        m[f"{name}.calls"] = (calls(name), "count/job")
        m[f"{name}.s"] = (secs(name), "s/job")
    m["linalg.FMatrix.new"] = (calls("linalg.FMatrix.new"), "count/job")
    m["linalg.matrix_log.per_edge"] = (per(calls("linalg.matrix_log"), props["edges"]), "calls/edge")
    m["linalg.RMatrix.new"] = (calls("linalg.RMatrix.new"), "count/job")
    m["linalg.RMatrix.matmul.calls"] = (calls("linalg.RMatrix.matmul"), "count/job")
    m["linalg.RMatrix.matmul.s"] = (secs("linalg.RMatrix.matmul"), "s/job")
    m["algebra.build_structure_table.s"] = (secs("algebra.build_structure_table"), "s/job")
    m["algebra.bracket.calls"] = (calls("algebra.bracket"), "count/job")
    for name in ("algebra.bracket", "algebra.expected_offdiag_bracket", "algebra.structure_table_json"):
        m[f"{name}.s"] = (secs(name), "s/job")
    m["groups.iwasawa.calls"] = (calls(*iwasawa), "count/job")
    m["groups.iwasawa.s"] = (secs(*iwasawa), "s/job")
    m["groups.iwasawa.per_vertex"] = (per(calls(*iwasawa), props["vertices"]), "calls/vertex")
    m["groups.ga_mul.calls"] = (calls("groups.ga_mul"), "count/job")
    m["complexes.torus_complex.calls"] = (calls("complexes.torus_complex"), "count/job")
    m["complexes.torus_complex.s"] = (secs("complexes.torus_complex"), "s/job")
    m["complexes.holonomy_residual.s"] = (secs("complexes.holonomy_residual"), "s/job")
    m["complexes.coboundary.calls"] = (calls("complexes.coboundary"), "count/job")
    for name in ("complexes.coboundary", "complexes.period", "complexes.coordinate_cochain"):
        m[f"{name}.s"] = (secs(name), "s/job")
    m["complexes.ScalarCochain1.new"] = (calls("complexes.ScalarCochain1.new"), "count/job")
    for name in (
        "foliation.ga_suspension",
        "foliation.product_foliation",
        "foliation.check_mc",
    ):
        m[f"{name}.s"] = (secs(name), "s/job")
    m["foliation.svd.calls"] = (kernel("svd"), "count/job")
    for name in (
        "foliation.check_equivariance",
        "foliation.validate_consistency",
        "foliation.project_foliation",
    ):
        m[f"{name}.s"] = (secs(name), "s/job")
    m["foliation.developing_value.calls"] = (calls("foliation.developing_value"), "count/job")
    m["foliation.developing_value.per_vertex"] = (
        per(calls("foliation.developing_value"), props["vertices"]),
        "calls/vertex",
    )
    m["tischler.rationalize.s"] = (secs("tischler.rationalize"), "s/job")
    m["tischler.integrate_to_circle.s"] = (secs("tischler.integrate_to_circle"), "s/job")
    for name in ("tischler.check_submersion", "tischler.fiber_census"):
        m[f"{name}.calls"] = (calls(name), "count/job")
        m[f"{name}.s"] = (secs(name), "s/job")
    m["tischler.crossings"] = (t["crossings"], "count/job")
    m["tischler.pipeline_sln.s"] = (secs("tischler.pipeline_sln"), "s/job")
    for k in ("logm", "expm", "qr"):
        m[f"kernel.{k}.calls"] = (kernel(k), "count/job")
    m["trace.spans"] = (t["spans"], "count/job")
    return m


def counts_of(trace):
    return {k: trace[k] for k in ("calls", "kernel_calls", "crossings", "spans")}


def kernel_checks(traces):
    """Wrapper calls vs library-boundary calls made directly inside them."""
    lines = []
    for wrapper, k in (
        ("linalg.matrix_log", "logm"),
        ("linalg.matrix_exp", "expm"),
        ("linalg.qr_positive", "qr"),
    ):
        calls = sum(t["calls"].get(wrapper, 0) for t in traces)
        inside = sum(t["kernel_calls"].get(f"{k}<-{wrapper}", 0) for t in traces)
        total = sum(n for t in traces for key, n in t["kernel_calls"].items() if key.startswith(k + "<-"))
        verdict = "ok" if calls == inside == total else "MISMATCH"
        lines.append(
            f"tracer check: {wrapper} calls {calls}, {k} calls inside it {inside}, "
            f"{k} calls in all {total}: {verdict}"
        )
    return lines


def measure_traced(runner):
    """Fixed job list, each untraced once and traced twice; per-layer metrics."""
    runner.warm_up()
    probe = runner.probe()
    spans = OUT / f"spans-{runner.name}.jsonl"  # the latest traced run only
    spans.unlink(missing_ok=True)
    records, per_job, traces, overhead, lines = [], [], [], [], []
    tracer_ok = True
    for index in range(runner.workload.TRACE_JOBS):
        inputs, job = runner.workload.job(index)
        plain, plain_res = runner.run(index, inputs, job)
        records.append(plain)
        traced = [
            runner.run(index, inputs, job, trace=True, spans_path=str(spans)),
            runner.run(index, inputs, job, trace=True),
        ]
        results = [plain_res] + [res for _, res in traced]
        if any(res is None for res in results):
            plain["ok"] = False
            lines.append(f"FAILED job {index}: a worker did not finish")
            continue
        reasons = [rec["reason"] for rec in [plain] + [rec for rec, _ in traced] if rec["reason"]]
        plain["ok"] = not reasons
        if reasons:
            lines.append(f"FAILED job {index}: {reasons[0]}")
        texts = [[c["stdout"] for c in res["commands"]] + [res.get("spec_sha256")] for res in results]
        if texts[1] != texts[0] or texts[2] != texts[0]:
            tracer_ok = False
            lines.append(f"tracer check FAILED: job {index} reports differ under tracing")
        a, b = traced[0][1]["trace"], traced[1][1]["trace"]
        if counts_of(a) != counts_of(b):
            tracer_ok = False
            lines.append(f"tracer check FAILED: job {index} counts differ between two traced runs")
        traces.append(a)
        ma, mb = layer_metrics(a, plain["props"]), layer_metrics(b, plain["props"])
        # times: mean of the two traced runs; counts are identical in both
        per_job.append({k: ((v + mb[k][0]) / 2 if u.startswith("s/") else v, u) for k, (v, u) in ma.items()})
        overhead.append(median(rec["job_s"] for rec, _ in traced) / plain["job_s"] - 1.0)
    metrics = {}
    for key, (_, unit) in (per_job[0].items() if per_job else ()):
        metrics[key] = (sum(j[key][0] for j in per_job) / len(per_job), unit)
    metrics["tischler.probe_bad_levels"] = (probe["bad_levels"] if probe else 0, "count")
    metrics["trace.overhead"] = (median(overhead) if overhead else 0.0, "ratio")
    lines = kernel_checks(traces) + lines
    lines.append(
        "tracer check: reports byte-identical traced vs untraced, counts identical "
        f"across two traced runs: {'ok' if tracer_ok else 'FAILED'} ({len(traces)} jobs)"
    )
    lines.append(f"tracing overhead: median of traced/untraced job time - 1 = {metrics['trace.overhead'][0]:+.3f}")
    lines.extend(f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    return records, probe, metrics, lines, tracer_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_worker so the running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "slnfib" / "cli.py").is_file():
        sys.exit(f"bench: no slnfib sources under {ROOT / 'src'}")
    WORK.mkdir(parents=True, exist_ok=True)
    info = env_info()
    print(f"slnfib bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    runner = Runner(args.workload, args.seed, worker_env())
    if args.trace:
        records, probe, metrics, lines, tracer_ok = measure_traced(runner)
    else:
        records, probe, metrics, lines, tracer_ok = measure(runner, args.seconds)
    if probe is not None:
        verdict = "fails" if probe["bad_levels"] else "passes"
        lines.append(
            f"known-defect probe (census, T^2 m=5): {verdict}; {probe['bad_levels']} of "
            f"{oracles.CENSUS_LEVELS} levels wrong, counts {probe.get('fiber_components')}, expected 3"
        )
    for line in lines:
        print(line)
    record = {
        "args": vars(args),
        "env": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "probe": probe,
        "jobs": records,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    attempted = len(records)
    failed = attempted - sum(r["ok"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0 and tracer_ok and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
