"""Write reference.json: every study table of every workload at full size.

    python3 perfbench/make_reference.py

Run once, on the commit whose outputs are the reference (35121d1, the
commit the benchmark was written against).  Running it again on a later
commit would make the output checks compare a commit with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import SRC

REFERENCE_SEED = 1


def main() -> int:
    sys.path.insert(0, str(SRC))
    from uavcast import cli
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.unit_ops(workload, REFERENCE_SEED,
                                         workloads.FULL, Path(tmp)):
                if op.kind != "study":
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(list(op.argv)) != 0:
                        raise SystemExit(f"{op.argv} failed")
                tables[op.output] = workloads.read_table(Path(tmp) / op.output)
    workloads.REFERENCE_PATH.write_text(json.dumps(tables, indent=1) + "\n")
    print(f"wrote {sum(map(len, tables.values()))} rows to "
          f"{workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
