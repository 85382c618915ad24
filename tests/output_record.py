"""The committed output record: one sha256 per benchmark case.

    python tests/output_record.py

runs every case of the benchmark's three workloads once through
``planarinv.cli.main``, in process, rewrites ``output_record.txt`` next to
this file and lists the cases whose digest changed.  A case is ``analyze``
on the 9 gallery entries and on the 100 seed-1 generated maps at
``--grid 15 --scan 61``, or ``foliate`` on the 8 entries with a
foliation.  Its digest covers the exit status, stdout, stderr and every
file written: the report without ``timings_ms``, or the CSV and the SVG.

Some cases call libm, whose last bit may differ between platforms: the maps
B (``asinh``) and C (``sin``, ``cos``), and every radial foliation (its ray
directions and angle gaps).  Their digests are compared only on the platform
recorded in the table; every other case runs on ``+ - * /``, ``sqrt`` and
CPython's own ``hypot`` and is compared everywhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = pathlib.Path(__file__).resolve().with_name("output_record.txt")
GENERATED_SEED = 1
_PLATFORM_PREFIX = "# platform: "
_LIBM_MAPS = {"B", "C"}


@dataclass(frozen=True)
class RecordCase:
    name: str
    argv: list[str]
    libm: bool  # compared only on the recorded platform


def platform_tag() -> str:
    libc, version = platform.libc_ver()
    return f"{platform.system()}-{platform.machine()}-{libc or 'libc'}-{version or '?'}"


def cases() -> list[RecordCase]:
    """The benchmark's cases, in workload order, from ``perfbench/workloads.py``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import planarinv
    import workloads

    built = (
        ("analyze-gallery", workloads.analyze_gallery(planarinv)),
        ("analyze-generated", workloads.analyze_generated(planarinv, GENERATED_SEED)),
        ("foliate-gallery", workloads.foliate_gallery(planarinv)),
    )
    return [
        RecordCase(f"{workload}/{case.label}", case.argv_head,
                   case.label in _LIBM_MAPS or case.expect.foliation == "radial")
        for workload, items in built for case in items
    ]


def digest(case: RecordCase, tmpdir: str) -> str:
    """sha256 of everything one call of ``case`` outputs, timings removed."""
    from planarinv import cli

    report, csv, svg = (pathlib.Path(tmpdir, name)
                        for name in ("report.json", "leaves.csv", "portrait.svg"))
    for path in (report, csv, svg):
        path.unlink(missing_ok=True)
    if case.argv[0] == "analyze":
        argv, written = case.argv + ["--out", str(report)], [report]
    else:
        argv, written = case.argv + ["--csv", str(csv), "--svg", str(svg)], [csv, svg]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    parts = [str(rc).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for path in written:
        data = path.read_bytes() if path.exists() else b""
        if path == report and data:
            fields = json.loads(data)
            fields.pop("timings_ms", None)
            data = (json.dumps(fields, indent=2) + "\n").encode()
        parts.append(data)
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmpdir:
        return {case.name: digest(case, tmpdir) for case in cases()}


def read_table() -> tuple[str, dict[str, str]]:
    """The recorded platform and the digest of each case."""
    recorded, digests = "", {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line.startswith(_PLATFORM_PREFIX):
            recorded = line[len(_PLATFORM_PREFIX):]
        elif line and not line.startswith("#"):
            name, value = line.split()
            digests[name] = value
    return recorded, digests


def write_table(digests: dict[str, str]) -> None:
    lines = [
        "# sha256 of every output of each benchmark case, timings_ms removed.",
        "# Regenerate with: python tests/output_record.py",
        f"{_PLATFORM_PREFIX}{platform_tag()}",
    ]
    lines += [f"{name} {value}" for name, value in digests.items()]
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    old = read_table()[1] if TABLE.exists() else {}
    new = compute()
    write_table(new)
    print(f"{len(new)} cases, platform {platform_tag()}; written to {TABLE.name}")
    if not old:
        print("no earlier table to compare with")
        return 0
    changed = [name for name in new if old.get(name) != new[name]]
    changed += [f"{name} (gone)" for name in old if name not in new]
    print(f"{len(changed)} changed" + "".join(f"\n  {name}" for name in changed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
