"""Executing ops: in the benchmark process through `quasitrivial.cli.main`, or
in a fresh `python -m quasitrivial` process; untraced or traced."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import Op, Result, digest

OP_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


class _Sink(io.TextIOBase):
    """Stand-in for stdout: hashes and counts lines as text arrives, and keeps
    the text only when asked, so the benchmark adds little to peak memory."""

    def __init__(self, keep: bool):
        self._hash = hashlib.sha256()
        self.lines = 0
        self._parts = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._hash.update(text.encode())
        self.lines += text.count("\n")
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def result(self):
        text = "".join(self._parts) if self._parts is not None else None
        return text, self._hash.hexdigest(), self.lines


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class InProcess:
    """Runs ops through `cli.main` with stdin, stdout and stderr swapped."""

    def __init__(self, keep_all: bool):
        from quasitrivial import cli

        self._cli = cli
        self._keep_all = keep_all

    def __call__(self, op: Op) -> Result:
        sink = _Sink(self._keep_all or op.meta.get("keep", False))
        err = io.StringIO()
        rc, error = None, None
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(op.stdin or "")
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = self._cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # the op gave no answer; counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                    err.write(traceback.format_exc())
                seconds = perf_counter() - start
        finally:
            sys.stdin = saved_stdin
        text, hexdigest, lines = sink.result()
        return Result(rc, text, hexdigest, lines, err.getvalue(), error, seconds)


class Subprocess:
    """Runs each op in a fresh interpreter: `python -m quasitrivial ...`, or
    under `traced_entry.py`, which writes the op's spans to `span_file`."""

    def __init__(self, root: Path, span_file: Path | None = None):
        self._root = root
        self._env = child_env(root)
        if span_file is None:
            self._prefix = [sys.executable, "-m", "quasitrivial"]
        else:
            self._prefix = [sys.executable, str(HERE / "traced_entry.py"), str(span_file)]

    def __call__(self, op: Op) -> Result:
        start = perf_counter()
        try:
            proc = subprocess.run(
                self._prefix + op.argv, input=op.stdin or "", capture_output=True,
                text=True, env=self._env, cwd=self._root, timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Result(None, None, "", 0, "", f"timed out after {OP_TIMEOUT_S} s",
                          perf_counter() - start)
        seconds = perf_counter() - start
        error = None
        if proc.returncode != 0 and "Traceback (most recent call last)" in proc.stderr:
            error = proc.stderr.strip().splitlines()[-1]
        out = proc.stdout
        return Result(proc.returncode, out, digest(out), out.count("\n"), proc.stderr, error,
                      seconds)


def measure_setup(root: Path, argv: list[str], repeats: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it has imported the
    package, built the CLI parser and parsed the first op's arguments."""
    probe = (
        "import sys\n"
        "from quasitrivial.cli import build_parser\n"
        "build_parser().parse_args(sys.argv[1:])\n"
        "sys.stdout.write('ready\\n')\n"
        "sys.stdout.flush()\n"
    )
    env = child_env(root)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", probe, *argv], stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, env=env, cwd=root, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(ready - start)
    return times


class Traced:
    """Wraps an executor so that each op's spans are reduced into per-name
    totals and appended to `trace_file`."""

    def __init__(self, execute, trace_file: Path, span_file: Path | None = None):
        self._execute = execute
        self._trace = open(trace_file, "wb")
        self._span_file = span_file
        self.reductions = []
        self._tracer = None
        if span_file is None:
            self._tracer = tracing.Tracer()
            self._tracer.install()

    def __call__(self, op: Op) -> Result:
        if self._span_file is not None:
            self._span_file.unlink(missing_ok=True)
        res = self._execute(op)
        if self._tracer is not None:
            names, batch = self._tracer.names, self._tracer.take()
            tracing.write_batch(self._trace, names, batch, op.key)
        else:
            names, batch = [], None
            if self._span_file.exists():
                with open(self._span_file, "rb") as fh:
                    for _, names, batch in tracing.read_batches(fh):
                        tracing.write_batch(self._trace, names, batch, op.key)
                self._span_file.unlink()
        self.reductions.append(tracing.reduce(names, batch) if batch else None)
        return res

    def close(self) -> None:
        if self._tracer is not None:
            self._tracer.uninstall()
        self._trace.close()
