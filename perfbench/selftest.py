"""Self-tests of the benchmark itself, from the repository root:

    python3 perfbench/selftest.py

They show that the gate flags corrupted output (an incomplete monotone
search and a crashing op included), that a seed fixes the op
list, that another seed changes the mix but stays within the pinned jobs,
that span self time is computed as documented, and that BENCHMARK.json lists
exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from array import array
from dataclasses import replace
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def op_list(workload: str, seed: int, n_rounds: int) -> list[tuple]:
    return [(op.key, op.stdin) for ops in islice(workloads.rounds(workload, seed), n_rounds)
            for op in ops]


class GateFlagsCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.execute = runner.InProcess(keep_all=True)
        cls.job = workloads._job("qt-semigroups", 6, filt="commutative")
        cls.good = cls.execute(cls.job)

    def gate(self, res):
        return workloads.gate_enumerate(self.job, res, {})

    def test_correct_output_passes(self):
        self.assertIsNone(self.gate(self.good))

    def test_dropped_line(self):
        text = "".join(self.good.stdout.splitlines(keepends=True)[:-1])
        bad = replace(self.good, stdout=text, digest=workloads.digest(text), lines=self.good.lines - 1)
        self.assertIn("lines", self.gate(bad))

    def test_flipped_table_cell(self):
        lines = self.good.stdout.splitlines(keepends=True)
        head, cells = lines[0].split(" : ")
        values = cells.split()
        values[1] = "1" if values[1] != "1" else "2"
        text = "".join([f"{head} : {' '.join(values)}\n"] + lines[1:])
        bad = replace(self.good, stdout=text, digest=workloads.digest(text))
        self.assertIn("digest", self.gate(bad))

    def test_nonzero_exit(self):
        self.assertIn("exit 1", self.gate(replace(self.good, rc=1)))

    def test_shard_union(self):
        serial = self.execute(workloads._job("qt-semigroups", 6))
        state = {None: serial.stdout}
        for i in range(2):
            state[(i, 2)] = self.execute(workloads._job("qt-semigroups", 6, shard=(i, 2))).stdout
        self.assertEqual(workloads.union_failures(state), [])
        state[(1, 2)] = "".join(state[(1, 2)].splitlines(keepends=True)[1:])
        self.assertEqual(len(workloads.union_failures(state)), 1)

    def test_classify_outputs(self):
        import random

        table = workloads.make_table(6, "D", random.Random(3))
        state: dict = {}
        for cmd in workloads.TABLE_COMMANDS:
            op = Op(list(cmd), table["text"], {"table": table, "cmd": cmd[0]})
            res = self.execute(op)
            self.assertIsNone(workloads.gate_classify(op, res, state), cmd)
            if cmd[0] == "classify":
                wrong = res.stdout.replace("decomposable: true", "decomposable: false")
                self.assertIsNotNone(workloads.gate_classify(op, replace(res, stdout=wrong), {}))
                self.assertIsNotNone(workloads.gate_classify(op, replace(res, rc=1), {}))
            if cmd[0] == "decompose":
                wrong = res.stdout.replace(" : ", " : 1 ", 1)
                self.assertIsNotNone(workloads.gate_classify(op, replace(res, stdout=wrong), {}))

    def test_classify_search_must_be_complete(self):
        import random

        rng = random.Random(1)
        table = next(t for t in (workloads.make_table(6, "D", rng) for _ in range(200))
                     if t["natural_monotone"] and len(t["orderings"]) > 1)
        state: dict = {}
        results = {}
        for cmd in workloads.TABLE_COMMANDS[:2]:
            op = Op(list(cmd), table["text"], {"table": table, "cmd": cmd[0]})
            results[cmd[0]] = (op, self.execute(op))
            self.assertIsNone(workloads.gate_classify(op, results[cmd[0]][1], state), cmd)
        op, res = results["classify"]
        kept = [line for line in res.stdout.splitlines()
                if not re.match(r"monotone_for_(\d+|count):", line)]
        empty = "\n".join(kept + ["monotone_for_count: 0"]) + "\n"
        self.assertIn("brute force", workloads.gate_classify(op, replace(res, stdout=empty), {}))
        op, res = results["check"]
        lines = res.stdout.splitlines()
        none = "\n".join(lines[:-1] + ["no order-preserving total ordering exists (720/720 rejected)"])
        self.assertIn("reports no ordering", workloads.gate_classify(op, replace(res, stdout=none + "\n"), {}))
        later = lines[-1].replace(table["orderings"][0], table["orderings"][1])
        self.assertIn("expected the first", workloads.gate_classify(
            op, replace(res, stdout="\n".join(lines[:-1] + [later]) + "\n"), {}))

    def test_crosscheck_outputs(self):
        op = workloads._count("q", 12)
        good = workloads.Result(0, "q 12 1 closed\nq 12 MATCH\n", "", 2, "", None, 0.1)
        self.assertIn("values or a wrong one", workloads.gate_crosscheck(op, good, {}))
        right = str(workloads.reference.q(12))
        good = replace(good, stdout=f"q 12 {right} closed\nq 12 {right} egf\nq 12 MATCH\n")
        self.assertIsNone(workloads.gate_crosscheck(op, good, {}))
        self.assertIsNotNone(workloads.gate_crosscheck(op, replace(good, rc=1), {}))


class FailuresAreWrong(unittest.TestCase):
    def tally(self, op, error):
        tally = run.Tally()
        tally.add(op, workloads.Result(None, None, "", 0, "", error, 0.1), None)
        return tally

    def test_raising_op_is_wrong(self):
        def crash(argv):
            raise KeyError(argv[0])

        execute = runner.InProcess(keep_all=False)
        execute._cli = SimpleNamespace(main=crash)
        res = execute(workloads._job("qt-semigroups", 6))
        self.assertTrue(res.error.startswith("KeyError"))
        tally = self.tally(workloads._job("qt-semigroups", 6), res.error)
        self.assertEqual((tally.failed, len(tally.wrong)), (1, 1))

    def test_known_defect_fails_without_being_wrong(self):
        high = workloads._count("q", 520, "recurrence")
        tally = self.tally(high, "RecursionError: maximum recursion depth exceeded")
        self.assertEqual((tally.failed, tally.wrong), (1, []))
        for op, error in ((high, "ValueError: bad"),
                          (workloads._count("q", 120, "recurrence"), "RecursionError: depth"),
                          (workloads._count("q", 6), "RecursionError: depth")):
            self.assertEqual(len(self.tally(op, error).wrong), 1, (op.key, error))


class Seeds(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(op_list(workload, 7, 2), op_list(workload, 7, 2), workload)

    def test_other_seed_other_mix_same_pinned_jobs(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(op_list(workload, 7, 1), op_list(workload, 8, 1), workload)
        # enumerate: the seed sets the order of a fixed job set, every job pinned
        pinned = set(workloads.PINNED)
        for seed in range(1, 9):
            self.assertEqual({op.key for op in next(workloads.rounds("enumerate", seed))}, pinned)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        names = ["cli", "structure.build", "magmas.FiniteBinOp"]
        batch = (array("H", [0, 1, 2, 1]), array("l", [-1, 0, 1, 0]),
                 array("d", [0.0, 1.0, 1.5, 3.0]), array("d", [10.0, 2.0, 1.75, 4.0]),
                 [0, 0, 0], 0)
        red = tracer.reduce(names, batch)["names"]
        self.assertAlmostEqual(red["cli"]["self_s"], 10.0 - 1.0 - 1.0)
        self.assertAlmostEqual(red["structure.build"]["self_s"], 2.0 - 0.25)
        self.assertEqual(red["structure.build"]["calls"], 2)

    def test_install_and_uninstall_restore_the_package(self):
        from quasitrivial import cli, enumeration, structure

        before = (cli.main, structure.build, enumeration.build)
        tr = tracer.Tracer()
        tr.install()
        self.assertIsNot(enumeration.build, before[2])
        tr.uninstall()
        self.assertEqual((cli.main, structure.build, enumeration.build), before)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]],
                         [[n, u, b] for n, u, b, _ in layers.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
