"""The yqchar benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload kr_complete --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it runs the code under ``src/``
as it stands, with no install step.  Workloads are described in
``perfbench/NOTES.md``.

``--trace 0`` measures the end-to-end metrics untraced:

* ``setup_s``: median over fresh interpreters, half of them started before
  the job process and half after it, of the time from start to ready
  (``import yqchar.cli`` and ``build_cartan`` for the workload's types),
  partly scaled to reference speed;
* ``jobs_per_s``: jobs completed over the busy time of the job loop;
* ``job_p50_s`` and ``job_p90_s``: per-job latency, ``dispatch`` call to
  return, over at least 100 jobs;
* ``peak_rss_mb``: peak RSS of the job process.

The job process runs a fixed number of cycles per workload
(``workloads.CYCLES``), 15-18 s of jobs at reference speed, so that
every commit does the same work in a run.  ``--seconds`` is accepted and
recorded, but it does not change the work.

The machine's speed is sampled around and during every job, and the job
timings are scaled to reference speed (``calibrate.py``), because on a
shared machine the raw times of identical work swing by up to 2x.  Raw
values are printed alongside.

``--trace 1`` runs one cycle untraced and the same cycle traced, and
reports the per-layer metrics with the tracing overhead (normalized busy
time of the job loop, traced and untraced).

Every job's exit code and output are checked against expectations that do
not depend on the seed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full result,
with provenance and the latency samples, is also written under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

# Set-up probes per run, half before and half after the job process, so
# that the median spans the run's time window.
SETUP_PROBES = 16
TIMEOUT_S = 170.0
# Process start-up is partly exec, page faults and file reads, which slow
# down less than the kernel does when another tenant contends for the core.
# On the sizing box set-up took 1.4x as long in the slow state while the
# kernel took 1.9x, so set-up is scaled by the square root of the kernel's
# slowdown.  Full scaling made run-to-run spread worse than none.
SETUP_SPEED_EXPONENT = 0.5

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="recorded; the work per run is fixed (workloads.CYCLES)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Worker:
    """A child interpreter running ``worker.py``; always reaped."""

    def __init__(self, argv, deadline):
        self.deadline = deadline
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)

    def ready_s(self) -> float:
        """Seconds from start until the worker reports that set-up is done."""
        # unbuffered, so nothing after this line is read ahead of communicate()
        line = self.proc.stdout.readline()
        if line.strip() != b"ready":
            self.finish()
            raise BenchError(f"worker did not get ready: {line!r}")
        return perf_counter() - self.start

    def finish(self) -> dict:
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}: "
                             f"{err.decode(errors='replace').strip()[-2000:]}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdout, self.proc.stderr):
            fh.close()


def _setup_probes(types, count, deadline) -> tuple[list, list]:
    """Raw and normalized set-up times of ``count`` fresh interpreters."""
    raw, norm = [], []
    for _ in range(count):
        with Worker(["--types", types, "--setup-only"], deadline) as w:
            t = w.ready_s()
            speed = w.finish()["speed"]
        raw.append(t)
        norm.append(t * (REFERENCE_S / speed) ** SETUP_SPEED_EXPONENT)
    return raw, norm


def _normalized(res) -> list:
    """Each job's latency scaled to reference speed (see calibrate.py)."""
    return [t * REFERENCE_S / s for t, s in zip(res["latencies"], res["speeds"])]


def _provenance(seed) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() if got.returncode == 0 else None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "seed": seed}


def _end_to_end(args, types, deadline):
    # one unmeasured start first, so that the bytecode cache is warm
    _setup_probes(types, 1, deadline)
    setup_raw, setup_norm = _setup_probes(types, SETUP_PROBES // 2, deadline)
    with Worker(["--types", types, "--workload", args.workload, "--seed", str(args.seed),
                 "--cycles", str(workloads.CYCLES[args.workload])], deadline) as w:
        w.ready_s()
        res = w.finish()
    after_raw, after_norm = _setup_probes(types, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    setup_raw, setup_norm = setup_raw + after_raw, setup_norm + after_norm
    raw, lat = res["latencies"], _normalized(res)
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": p90,
        "peak_rss_mb": res["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(setup_norm)} interpreter starts around the jobs "
                   f"(raw {statistics.median(setup_raw):.4g} s)",
        "jobs_per_s": f"n={len(lat)} jobs in {res['cycles']} cycle(s) "
                      f"(raw {len(raw) / sum(raw):.4g} 1/s over {sum(raw):.2f} s busy)",
        "job_p50_s": f"n={len(lat)} (raw {statistics.median(raw):.4g} s)",
        "job_p90_s": f"n={len(lat)}, {sum(v > p90 for v in lat)} beyond "
                     f"(raw {statistics.quantiles(raw, n=10)[8]:.4g} s)",
        "peak_rss_mb": f"{res['cycles']} cycle(s)",
    }
    detail = {"setup_raw_s": setup_raw, "setup_normalized_s": setup_norm,
              "latencies_raw_s": raw, "speeds_s": res["speeds"], "latencies_s": lat}
    return metrics, END_TO_END, notes, res, detail


def _traced(args, types, deadline):
    spans = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    base = ["--types", types, "--workload", args.workload, "--seed", str(args.seed),
            "--cycles", "1"]
    with Worker(base + ["--probe"], deadline) as w:
        w.ready_s()
        plain = w.finish()
    with Worker(base + ["--trace", str(spans)], deadline) as w:
        w.ready_s()
        res = w.finish()
    untraced, traced = sum(_normalized(plain)), sum(_normalized(res))
    measured_here = {
        "identities.tq_regime_case.fails": int(plain["regime_case_exit"] == 1),
        "trace.untraced_busy_s": untraced,
        "trace.traced_busy_s": traced,
        "trace.overhead_ratio": traced / untraced,
    }
    metrics = {name: measured_here[name] if name in measured_here else res["layers"][name]
               for name in PER_LAYER}
    notes = {"trace.overhead_ratio": f"{res['spans']} spans written to "
                                     f"{spans.relative_to(ROOT)}"}
    if plain["failures"] != res["failures"]:
        raise BenchError("traced and untraced runs of one job list disagree on failures")
    return metrics, PER_LAYER, notes, res, {}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "yqchar" / "__init__.py").is_file():
        print(f"error: no yqchar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + TIMEOUT_S
    types = ",".join(workloads.TYPES[args.workload])
    OUT.mkdir(exist_ok=True)
    measure = _traced if args.trace else _end_to_end
    try:
        metrics, units, notes, res, detail = measure(args, types, deadline)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    prov = _provenance(args.seed)
    attempted, failed = res["jobs"], len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':42s} {failed / attempted:>14.6g} ratio  "
          f"{failed} of {attempted} jobs")
    for reason in list(res["failures"].values())[:10]:
        print(f"  FAILED {reason}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "summary": summary, "failures": res["failures"],
              **detail}
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
