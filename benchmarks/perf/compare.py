"""``compare A.json B.json``: the A/A tool and the parent-vs-change table.

Reads two ledgers written by ``run --out``.  First the check a
speed-only change must pass: every ``sim_*`` metric, every simulated
per-layer count and every ``sim_digest`` identical.  Then one row per
workload and end-to-end metric: both medians, the quartiles over rounds,
the change in the *worse* direction as a share of A, the metric's bound
and a verdict:

``same``        within the bound either way
``better``      B beats A by more than the spread between rounds
``worse``       B is worse than A by more than the bound
``unresolved``  the spread between rounds exceeds the bound, so a
                regression of the bound's size could hide in it — unless
                every round of B beats every round of A (``better``)

Exit status 1 on any ``worse``.
"""

import json
import statistics
import sys

from benchmarks.perf import catalog


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        ledger = json.load(handle)
    if "workloads" not in ledger:
        raise ValueError("%s is not a ledger written by `run --out`" % path)
    return ledger


def _quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def identity_problems(a, b):
    """Simulated results that differ between the two ledgers."""
    problems = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        for part in ("end_to_end", "per_layer"):
            left = a["workloads"][workload].get(part)
            right = b["workloads"][workload].get(part)
            if left is None or right is None:
                continue
            if left["sim_digest"] != right["sim_digest"]:
                problems.append("%s %s sim_digest" % (workload, part))
            for name, value in left["values"].items():
                if "sim_" in name and right["values"].get(name) != value:
                    problems.append(
                        "%s %s: %r -> %r"
                        % (workload, name, value, right["values"].get(name))
                    )
    return problems


def verdict(metric, a_entry, b_entry):
    """``(worse_by, spread, verdict)`` for one row of the table."""
    a_value, b_value = a_entry["values"][metric], b_entry["values"][metric]
    if a_value == b_value:
        return 0.0, 0.0, "same"
    a_rounds = a_entry["rounds"].get(metric) or [a_value]
    b_rounds = b_entry["rounds"].get(metric) or [b_value]
    bound = catalog.bound_of(metric)
    higher_is_better = catalog.higher_is_better(metric)
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (b_value - a_value) / (abs(a_value) or 1.0)
    spread = max(
        (q3 - q1) / (abs(median) or 1.0)
        for (q1, q3), median in (
            (_quartiles(a_rounds), a_value),
            (_quartiles(b_rounds), b_value),
        )
    )
    if higher_is_better:
        all_better = min(b_rounds) > max(a_rounds)
    else:
        all_better = max(b_rounds) < min(a_rounds)
    if all_better or (spread <= bound and -worse_by > spread):
        word = "better"
    elif spread > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "same"
    return worse_by, spread, word


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: compare A.json B.json\n")
        return 2
    a, b = _load(argv[0]), _load(argv[1])
    problems = identity_problems(a, b)
    if problems:
        print("simulation identity: CHANGED (%d differences)" % len(problems))
        for problem in problems[:20]:
            print("  " + problem)
    else:
        print("simulation identity: IDENTICAL (every sim_* metric and sim_digest)")
    any_worse = False
    metrics = catalog.END_TO_END + catalog.LEDGER_END_TO_END
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        print("\n%s" % workload)
        print(
            "  %-20s %14s %14s %9s %8s %7s  %s"
            % ("metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
        )
        # The untraced part carries every end-to-end metric, ledger ones too.
        a_entry = a["workloads"][workload]["end_to_end"]
        b_entry = b["workloads"][workload]["end_to_end"]
        for name, _unit, _better, bound in metrics:
            worse_by, spread, word = verdict(name, a_entry, b_entry)
            any_worse = any_worse or word == "worse"
            print(
                "  %-20s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s"
                % (name, a_entry["values"][name], b_entry["values"][name],
                   100 * worse_by, 100 * spread, 100 * bound, word)
            )
    return 1 if any_worse else 0
