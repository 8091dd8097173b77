"""One fresh interpreter running one workload's jobs through ``yqchar.cli.dispatch``.

Set-up is what a CLI user pays on every invocation: interpreter start,
``import yqchar.cli`` and ``build_cartan`` for the workload's Lie types.
The worker prints ``ready`` when set-up is done, so the parent can time it,
then runs the jobs in a closed loop with one client and no threads: the
next job is sent only after the previous one returns.  Jobs share the
package's caches, as the entries of one ``verify suite`` file do.

The last line of standard output is one JSON object with the results.

    python3 perfbench/worker.py --types A1,A2 [--setup-only]
        [--workload W --seed S --cycles N [--trace SPANS] [--probe]]
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import yqchar.cartan  # noqa: E402
import yqchar.cli  # noqa: E402

import calibrate  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--types", required=True, help="comma-separated Lie types to build")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=1, help="run exactly this many cycles")
    p.add_argument("--trace", default=None, help="trace the run; write its spans here")
    p.add_argument("--probe", action="store_true",
                   help="after the loop, run the out-of-regime TQ case once, untimed")
    return p.parse_args(argv)


def _run_cycle(jobs, check, tracer, first_index):
    """Run one cycle; returns (latencies, speeds, failure reasons by job index).

    A job's speed is the mean of the kernel samples taken just before it,
    during it and just after it; its latency leaves out the time the samples
    during it took."""
    dispatch = yqchar.cli.dispatch
    latencies, speeds, failures = [], [], {}
    before = calibrate.sample()
    with calibrate.SpeedProbe() as probe:
        for n, job in enumerate(jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = first_index + n
            k, spent = len(probe.samples), probe.spent
            t0 = perf_counter()
            try:
                code = dispatch(list(job.argv), out, err)
            except Exception as ex:  # a crash is a failed job; the loop goes on
                code, crash = None, f"raised {type(ex).__name__}: {ex}"
            t1 = perf_counter()
            during, spent = probe.samples[k:], probe.spent - spent
            after = calibrate.sample()
            latencies.append(t1 - t0 - spent)
            speeds.append((before + sum(during) + after) / (len(during) + 2))
            before = after
            text = out.getvalue()
            if tracer is not None:
                tracer.output_bytes += len(text.encode())
            reason = crash if code is None else check(job, code, text)
            if reason is not None:
                failures[first_index + n] = f"{' '.join(job.argv)}: {reason}"
    return latencies, speeds, failures


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for t in args.types.split(","):
        # through the module, so that a traced run times it
        yqchar.cartan.build_cartan(yqchar.cartan.LieType.parse(t))
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"speed": calibrate.sample()}))
        return 0

    import workloads
    latencies, speeds, failures = [], [], {}
    for index in range(args.cycles):
        jobs = workloads.cycle(args.workload, args.seed, index)
        lat, spd, fails = _run_cycle(jobs, workloads.check, tracer, len(latencies))
        latencies += lat
        speeds += spd
        failures.update(fails)
    result = {
        "jobs": len(latencies),
        "cycles": args.cycles,
        "latencies": latencies,
        "speeds": speeds,
        "failures": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["spans"] = tracer.write_spans(args.trace)
    if args.probe:
        code = yqchar.cli.dispatch(list(workloads.REGIME_CASE), io.StringIO(), io.StringIO())
        result["regime_case_exit"] = code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
