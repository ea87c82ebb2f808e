"""Cold-start probe behind ``setup_s``; run by ``run.py`` in a fresh interpreter.

Usage: python3 perfbench/coldstart.py <workload> <seed> <work dir>

Imports ``tfconc.cli``, generates the workload's small inputs and runs its
warm-up invocations, then writes their exit statuses to ``codes.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tfconc.cli  # noqa: E402

import workloads  # noqa: E402

workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
codes = [tfconc.cli.main(list(call.argv))
         for call in workloads.build(workload, seed, work, small=True)]
(work / "codes.json").write_text(json.dumps(codes))
