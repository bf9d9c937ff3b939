"""Set-up cost in a fresh interpreter: import ``coordest.cli``, ingest the
CSV and parse the scheme(s).  Prints one JSON object of timings, in process
CPU time, with the median time of the reference kernel afterwards (see
``workload.py`` for why).

    PYTHONPATH=src python3 coordbench/setup_probe.py DATA.csv [SCHEME_FILE]
"""

import time

t0 = time.process_time()
from coordest import cli  # noqa: E402  (the import is what is timed)

t1 = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import INLINE_SCHEME, reference_kernel  # noqa: E402

t2 = time.process_time()
data = cli.ingest(sys.argv[1])
t3 = time.process_time()
cli.parse_scheme(INLINE_SCHEME, data.r)
if len(sys.argv) > 2:
    cli.parse_scheme_file(Path(sys.argv[2]).read_text(), data.r)
t4 = time.process_time()
kernel = sorted(reference_kernel() for _ in range(5))[2]
print(json.dumps({
    "import_s": t1 - t0,
    "ingest_s": t3 - t2,
    "scheme_s": t4 - t3,
    "setup_s": (t1 - t0) + (t4 - t2),
    "reference_s": kernel,
}))
