"""Every benchmark case writes what the committed record says, byte for byte
apart from ``timings_ms``.

A change that alters an output on purpose regenerates the table with
``python tests/output_record.py`` and names each changed case and the reason
in CHANGES.md.  Cases that call libm are compared only on the recorded
platform (see ``output_record.py``); a warning names the ones skipped.
"""

import tempfile
import warnings

import output_record


def test_every_case_writes_its_recorded_output():
    recorded_platform, recorded = output_record.read_table()
    cases = output_record.cases()
    assert sorted(case.name for case in cases) == sorted(recorded)
    here = output_record.platform_tag()
    compared = [case for case in cases if not case.libm or here == recorded_platform]
    skipped = sorted({case.name for case in cases} - {case.name for case in compared})
    if skipped:
        warnings.warn(f"libm cases not compared on {here} (recorded on "
                      f"{recorded_platform}): {', '.join(skipped)}", stacklevel=1)
    changed = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for case in compared:
            if output_record.digest(case, tmpdir) != recorded[case.name]:
                changed.append(case.name)
    assert changed == [], f"outputs changed: {', '.join(changed)}"
    assert len(compared) >= 110  # the cases that call no libm function
