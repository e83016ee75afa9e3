"""Compare the result digests of two benchmark records.

    python3 perfbench/digest.py REFERENCE.json CANDIDATE.json

Both files are records written by ``run.py`` to ``perfbench/out/`` for the
same workload and seed, typically one from the parent commit and one from a
change.  The digest holds the eigenvalues of the first operations of the
seeded stream with their own error estimates.  A value is flagged when it
moved by more than the error estimate the reference record gives it (plus a
rounding floor), which is the rule that eigenvalues change only within their
stated error estimates.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import sys

ROUNDING = 1e-12   # relative floor for values whose estimate is zero


def _index(digest):
    return {(op["op"], label): (value, error)
            for op in digest for label, value, error in op["values"]}


def compare(reference, candidate) -> list:
    """Flags for every digest value that moved beyond its error estimate."""
    ref, new = _index(reference), _index(candidate)
    flags = []
    for key in sorted(ref.keys() | new.keys()):
        op, label = key
        if key not in ref or key not in new:
            flags.append(f"op {op} {label}: present in only one record")
            continue
        (a, err), (b, _) = ref[key], new[key]
        if abs(b - a) > err + ROUNDING * max(1.0, abs(a)):
            flags.append(f"op {op} {label}: {a!r} -> {b!r}, moved {abs(b - a):.3g} "
                         f"beyond its estimate {err:.3g}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: digest.py REFERENCE.json CANDIDATE.json", file=sys.stderr)
        return 2
    ref, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if (ref["workload"], ref["seed"]) != (new["workload"], new["seed"]):
        print("records are for different workloads or seeds", file=sys.stderr)
        return 2
    flags = compare(ref["digest"], new["digest"])
    for flag in flags:
        print(flag)
    count = sum(len(op["values"]) for op in ref["digest"])
    print(f"{ref['workload']} seed {ref['seed']}: {len(flags)} of {count} values flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
