"""Pin the stdout of every enumerate job the benchmark can draw.

    PYTHONPATH=src python3 perfbench/pin.py > perfbench/data/pinned.json

Run once at the commit whose output bytes are the contract; the benchmark
then requires every later commit to print exactly these bytes.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quasitrivial.cli import main  # noqa: E402

from workloads import FILTERS, _job  # noqa: E402


def universe():
    yield _job("qt-semigroups", 6)
    for f in FILTERS:
        yield _job("qt-semigroups", 6, filt=f)
    for k in (2, 4):
        for i in range(k):
            yield _job("qt-semigroups", 6, shard=(i, k))
    yield _job("qt-semigroups", 7)
    yield _job("weak-orders", 8)
    yield _job("weakly-single-peaked-weak-orders", 7)


pins = {}
for job in universe():
    buf = io.StringIO()
    with redirect_stdout(buf):
        if main(job.argv) != 0:
            raise SystemExit(f"{job.key} failed")
    text = buf.getvalue()
    pins[job.key] = {"lines": text.count("\n"), "sha256": hashlib.sha256(text.encode()).hexdigest()}
json.dump(pins, sys.stdout, indent=1, sort_keys=True)
sys.stdout.write("\n")
