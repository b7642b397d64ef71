"""Run one CLI op with every layer traced, then write its spans.

    PYTHONPATH=src python3 perfbench/traced_entry.py SPAN_FILE <cli args...>

Used by the `crosscheck` workload's traced run, where each op is a fresh
process; the exit status and output are those of the CLI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from quasitrivial import cli  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    try:
        return cli.main(argv)
    finally:
        with open(span_file, "wb") as handle:
            tracer.write_batch(handle, tr.names, tr.take(), " ".join(argv))


if __name__ == "__main__":
    sys.exit(main())
