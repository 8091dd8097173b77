"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--seed N]

For every workload it makes two traced runs of one seed and checks that

* every job met its expectation;
* the counts (calls, constructions, terms out, relation instances, module
  dimensions, output bytes, repeat ratio) are exactly equal in both runs;
* each per-layer metric is nonzero on the workloads that exercise its layer
  (``identities.tq_regime_case.fails`` is left out: it is 1 while the
  ROADMAP item 3 defect stands and 0 once it is fixed);
* the predicted zeros hold: ``rank1_matrix`` never calls ``fm_expand`` and
  ``kr_complete`` never calls ``check_relations``;
* ``BENCHMARK.json``, when present, declares the metrics that ``run.py``
  reports, with the same units.

It prints the tracing overhead (traced over untraced busy time) per
workload and exits 1 if any check fails.  It takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracer import EXACT, PER_LAYER  # noqa: E402

_ALL = ("kr_complete", "identity_suite", "rank1_matrix")
_ENGINE = ("kr_complete", "identity_suite")

# Per-layer metric prefix -> workloads on which it must be nonzero.
EXERCISED = {
    "cli.": _ALL,
    "textio.": _ALL,
    "identities.verify_": ("identity_suite",),
    "identities.tq_rhs.": ("identity_suite",),
    "identities.tq_lhs_division.": ("identity_suite",),
    "characters.fm_expand.": _ENGINE,
    "characters.fm_expand.repeat_ratio": ("identity_suite",),
    "characters.char_mul.": ("identity_suite", "rank1_matrix"),
    "characters.divide_series.": ("identity_suite",),
    "characters.stabilize.": ("identity_suite",),
    "characters.demazure_char_via_ses.": ("identity_suite",),
    "monomials.avector_to_y.": _ENGINE,
    "monomials.y_to_psi.": _ENGINE,
    "monomials.psi_to_y.": _ENGINE,
    "monomials.avector_to_psi.": ("identity_suite", "rank1_matrix"),
    "monomials.AVector.": _ALL,
    "monomials.YMonomial.": _ENGINE,
    "monomials.PsiMonomial.": _ALL,
    "coords.": _ALL,
    "cartan.": _ALL,
    "sl2_explicit.": ("rank1_matrix",),
    "trace.": _ALL,
}
PREDICTED_ZERO = {
    "rank1_matrix": ("characters.fm_expand.calls",),
    "kr_complete": ("sl2_explicit.check_relations.calls",),
}


def _exercised_on(name):
    """Workloads for the longest prefix of EXERCISED that ``name`` starts with."""
    prefix = max((p for p in EXERCISED if name.startswith(p)), key=len, default=None)
    return EXERCISED[prefix] if prefix else ()


def _traced(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, {k: v["value"] for k, v in doc["metrics"].items()}


def _declared_metrics():
    """Problems with BENCHMARK.json's metric lists, when it is present."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return []
    doc = json.loads(path.read_text())
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in doc[key]}
        if declared != ours:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(_ALL):
        problems.append("BENCHMARK.json workloads differ from the self-tested ones")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args(argv).seed
    problems = _declared_metrics()
    for workload in _ALL:
        (doc1, m1), (doc2, m2) = _traced(workload, seed), _traced(workload, seed)
        for doc in (doc1, doc2):
            if not doc["correct"]:
                problems.append(f"{workload}: {doc['failed']} of {doc['attempted']} jobs failed")
        if set(m1) != set(PER_LAYER):
            problems.append(f"{workload}: metrics differ from the per-layer list")
        for name in EXACT:
            if m1.get(name) != m2.get(name):
                problems.append(f"{workload}: {name} not repeated: {m1.get(name)} vs {m2.get(name)}")
        for name in PER_LAYER:
            if workload in _exercised_on(name) and not m1.get(name):
                problems.append(f"{workload}: {name} is zero but should be exercised")
        for name in PREDICTED_ZERO.get(workload, ()):
            if m1.get(name) != 0:
                problems.append(f"{workload}: {name} = {m1.get(name)}, predicted 0")
        print(f"{workload}: tracing overhead {m1['trace.overhead_ratio']:.3f} and "
              f"{m2['trace.overhead_ratio']:.3f} (traced / untraced busy time)")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
