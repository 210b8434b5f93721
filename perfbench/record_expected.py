"""Records expected.json: the sha256 of every output of every workload at the
default seed, from one run of the current program.

    python3 perfbench/record_expected.py

Run it only when a change is meant to alter reports; the benchmark compares
against these digests at the default seed and counts any difference as a
failed invocation.
"""

import json
import shutil
import sys

import checks
import run  # puts this checkout's src/ on sys.path before workloads imports pacreason
import workloads


def main() -> int:
    recorded = {}
    for name in workloads.GENERATORS:
        work = run.HERE / ".work" / f"record-{name}"
        try:
            plan = workloads.generate(name, workloads.DEFAULT_SEED, work)
            rounds, digests = run.run_rounds(plan, work, 0, False, {})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = [p for r in rounds for p in r["problems"]]
        if problems:
            sys.stderr.write(f"{name}: {problems}\n")
            return 1
        recorded[name] = digests
    checks.EXPECTED_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
