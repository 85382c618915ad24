#!/usr/bin/env python3
"""Run the verdict pipeline over every built-in map and tabulate the results.

Shows the split the theory predicts: orientation-reversing entries verify
the trace condition, orientation-preserving ones verify a real sampled
spectrum (or are the identity), and the rotation blend verifies nothing.
"""

from planarinv import (
    GridSample,
    get,
    injectivity_scan,
    list_entries,
    standard_map,
    theorem_verdict,
)


def main() -> None:
    print(f"{'entry':<16} {'orientation':<11} {'linearizable':<13} {'injectivity':<18} verdict")
    print("-" * 110)
    for name in list_entries():
        entry = get(name)
        assessment = theorem_verdict(GridSample(entry.map, entry.window))
        cert = injectivity_scan(standard_map(entry.map), entry.window, scan_n=101)
        print(f"{name:<16} {assessment.orientation.kind:<11} "
              f"{str(assessment.linearizable_on_window):<13} {cert.status:<18} "
              f"{assessment.verdict}")


if __name__ == "__main__":
    main()
