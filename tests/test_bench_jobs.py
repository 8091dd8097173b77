"""Every job of the benchmark runs and meets its expectation: cycle 0 of seed
1 of each workload, through ``cli.dispatch`` in this process, checked by the
workloads' own ``check``.  A job the benchmark would count as failed fails here."""
import importlib.util
import io
import pathlib
import sys

import pytest

import yqchar.cli as cli

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    # registered before it runs, as an import would: its dataclass looks itself up there
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _workloads()


@pytest.mark.parametrize("workload, jobs", [
    ("kr_complete", 100), ("identity_suite", 594), ("rank1_matrix", 100)])
def test_every_job_of_a_benchmark_cycle_meets_its_check(workload, jobs):
    cycle = workloads.cycle(workload, 1, 0)
    assert len(cycle) == jobs
    failed = []
    for job in cycle:
        out, err = io.StringIO(), io.StringIO()
        if (why := workloads.check(job, cli.dispatch(list(job.argv), out, err),
                                   out.getvalue())) is not None:
            failed.append((" ".join(job.argv), why, err.getvalue()))
    assert failed == []
