"""Apply the benchmark's regression bounds to two result files.

``A`` is the baseline and ``B`` the candidate.  One row per (workload,
end-to-end metric):

- ``worse``: B's value is worse than A's by more than the metric's
  bound (a share of A's value);
- ``unresolved``: a host-clock metric whose per-pass values, in either
  file, have an interquartile range wider than the bound -- the runs
  cannot tell;
- ``ok`` otherwise.

Simulated-clock metrics are exact per seed, so when both files used the
same seed any difference in them is real; the fingerprint row says
whether the simulated behaviour is bit-identical.
"""

from __future__ import annotations

import json


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric's two summaries."""
    va, vb = a["value"], b["value"]
    loss = (vb - va) if better == "lower" else (va - vb)
    if loss > bound * abs(va):
        return "worse"
    for m in (a, b):
        if "q1" in m and m["value"] and (m["q3"] - m["q1"]) > bound * abs(m["value"]):
            return "unresolved"
    return "ok"


def compare(doc_a: dict, doc_b: dict, bench: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, unit, verdict)``; a workload in
    only one file is reported as ``missing``."""
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        wa, wb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if wa is None or wb is None:
            if wa is not None or wb is not None:
                rows.append((name, "*", None, None, "", "missing"))
            continue
        same = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        rows.append((name, "sim_fingerprint", wa["sim_fingerprint"],
                     wb["sim_fingerprint"], "", "same" if same else "differs"))
        for m in bench["end_to_end"]:
            a, b = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            rows.append((name, m["name"], a["value"], b["value"], m["unit"],
                         verdict(a, b, m["better"], m["bound"])))
    return rows


def compare_files(path_a: str, path_b: str, bench: dict) -> int:
    """Print the rows; exit status 1 when any metric is ``worse``."""
    with open(path_a) as f:
        doc_a = json.load(f)
    with open(path_b) as f:
        doc_b = json.load(f)
    rows = compare(doc_a, doc_b, bench)
    seeds = (doc_a["manifest"]["seed"], doc_b["manifest"]["seed"])
    if seeds[0] != seeds[1]:
        print(f"note: seeds differ ({seeds[0]} vs {seeds[1]}): simulated-clock "
              "metrics are only exact for equal seeds")
    def fmt(x: object) -> str:
        return f"{x:.6g}" if isinstance(x, float) else str(x)

    for workload, metric, a, b, unit, v in rows:
        print(f"{workload:26s} {metric:20s} {fmt(a):>16s} {fmt(b):>16s} "
              f"{unit:6s} {v}")
    worse = sum(1 for r in rows if r[5] == "worse")
    unresolved = sum(1 for r in rows if r[5] == "unresolved")
    print(f"{worse} worse, {unresolved} unresolved, {len(rows)} rows")
    return 1 if worse else 0
