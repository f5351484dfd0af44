"""Record the sha256 and exit code of every corpus_cli report.

    python3 perfbench/record_digests.py

Run from the repository root.  Writes perfbench/digests.json, the table
corpus_cli checks each report against; re-record it only in a change that
means to alter the reports.
"""

import json
import shutil
import sys

import run


def main():
    run.import_package()
    import workloads

    out_dir = run.ROOT / ".perfbench_tmp" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        table = workloads.record_digests(run.ROOT, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
