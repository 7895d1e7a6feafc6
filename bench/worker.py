"""One benchmark job in a fresh interpreter, as one user runs the CLI.

Reads a job description (JSON) on stdin, imports slnfib, times a fixed
reference computation, optionally builds an SL(2) product spec with the
library constructors, runs each command through `slnfib.cli.main(argv)` with
its output captured, and prints one JSON result line.  Run by bench/run.py
with PYTHONPATH=src from the repository root.
"""
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

job = json.load(sys.stdin)

# calls go through module attributes, so that a tracer's rebinding sees them
from slnfib import cli, foliation, groups, serialize  # noqa: E402

import numpy as np  # noqa: E402  (both already imported by slnfib)
import scipy.linalg  # noqa: E402

t_imported = perf_counter()
expm = scipy.linalg.expm  # bound before a tracer hooks the module attribute


def reference_seconds():
    """Time of a fixed computation with slnfib's instruction mix: 2x2 scipy
    expm, numpy products and Fraction arithmetic, none of it slnfib code.

    The host's speed drifts by tens of percent between minutes.  The job's
    time divided by this one, taken in the same process just before and just
    after the job, compares across runs.
    """
    a = np.array([[0.1, 0.2], [0.0, -0.1]])
    acc, f = 0.0, Fraction(0)
    t0 = perf_counter()
    for k in range(600):
        acc += (expm(a) @ a)[0, 1]
        f += Fraction(k % 7, 11)
    return perf_counter() - t0


ref_before = reference_seconds()
tracer = None
if job["trace"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

t_ready = perf_counter()
result = {"t_imported": t_imported, "build_s": None, "commands": [], "error": None}


def build_spec(b):
    """SL(2) product spec from GA holonomy (a, b), dumped to b['path']."""
    base = foliation.ga_suspension(b["m"], groups.GAElement(b["a"], b["b"]))
    spec = foliation.product_foliation(base)
    obj = serialize.dump_foliation_spec(spec)
    if b["bump"] is not None:
        # negative control: break flatness on one edge by [[0, 0.01], [0, 0]]
        obj["cochain"][b["bump"]][0][1] += 0.01
    text = json.dumps(obj)
    with open(b["path"], "w") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return {
        "argv": argv,
        "code": code,
        "seconds": perf_counter() - t0,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


try:
    if job["build"] is not None:
        t0 = perf_counter()
        result["spec_sha256"] = build_spec(job["build"])
        result["build_s"] = perf_counter() - t0
    for argv in job["commands"]:
        result["commands"].append(run_command(argv))
except Exception:
    result["error"] = traceback.format_exc()
t_end = perf_counter()

result["job_s"] = t_end - t_ready
result["ref_s"] = (ref_before + reference_seconds()) / 2
result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
if tracer is not None:
    result["trace"] = tracer.summary()
    if job["spans_path"]:
        tracer.write_spans(job["spans_path"], job["id"], t_ready)
sys.stdout.write(json.dumps(result) + "\n")
