"""The benchmark's tracer (`perfbench/tracer.py`) against the package.

The tracer wraps package functions by module and name.  These tests fail
when a change removes or renames one of them, or hides calls from it, so
`perfbench/run.py --trace 1` cannot break unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from quasitrivial import cli, enumeration, structure
from quasitrivial.enumeration import FAMILIES

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for mod_name, attr, kind in tracer.TARGETS:
        module = importlib.import_module(f"quasitrivial.{mod_name}")
        assert hasattr(module, attr), f"quasitrivial.{mod_name} has no {attr}"
        target = getattr(module, attr)
        assert isinstance(target, type) if kind == "class" else callable(target), attr


def test_install_and_uninstall_restore_the_package(tracer):
    before = (cli.main, structure.build, enumeration.build)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert enumeration.build is not before[2]
        assert structure.build is not before[1]
    finally:
        tr.uninstall()
    assert (cli.main, structure.build, enumeration.build) == before


def test_filter_calls_are_traced(tracer, capsys):
    # the filters call their predicates through module globals, which the
    # tracer replaces; a predicate bound at import would be invisible here
    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main([
            "enumerate", "qt-semigroups", "--n", "3", "--filter", "commutative",
            "--filter", "monotone-for-reference", "--filter", "neutral",
        ])
        calls = tracer.reduce(tr.names, tr.take())["names"]
    finally:
        tr.uninstall()
    assert code == 0
    # the maxima of the 2^(3-1) single-peaked orderings, each with its bottom
    # element neutral
    assert capsys.readouterr().out.count("\n") == 4
    for name in ("magmas.is_commutative", "magmas.is_order_preserving",
                 "magmas.neutral_elements"):
        assert calls.get(name, {}).get("calls", 0) > 0, name


LINES_AT_3 = {
    "total-orders": 6,
    "weak-orders": 13,
    "single-peaked-total-orders": 4,
    "weakly-single-peaked-weak-orders": 8,
    "qt-semigroups": 20,
}


@pytest.mark.parametrize(
    "family,emitter", [(family, f"formats.{row[2]}") for family, row in FAMILIES.items()]
)
def test_every_emitted_line_is_one_traced_emit(tracer, capsys, family, emitter):
    # `cli` looks the family's emitter up in `formats` by name for each run
    # and calls it once per object; an emitter held in the table, bound at
    # import or inlined would hide from a trace
    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main(["enumerate", family, "--n", "3"])
        calls = tracer.reduce(tr.names, tr.take())["names"]
    finally:
        tr.uninstall()
    assert code == 0
    lines = capsys.readouterr().out.count("\n")
    assert lines == LINES_AT_3[family]
    assert calls.get(emitter, {}).get("calls", 0) == lines


def test_bruteforce_route_is_one_traced_search(tracer, capsys):
    # `counting.routes` looks the search named by the sequence up in `oracle`
    # on each call; a search held in the table would hide from a trace
    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main(["count", "q", "3", "--method", "all"])
        calls = tracer.reduce(tr.names, tr.take())["names"]
    finally:
        tr.uninstall()
    assert code == 0
    assert "q 3 20 bruteforce\n" in capsys.readouterr().out
    assert calls.get("oracle.brute_count_quasitrivial_associative", {}).get("calls", 0) == 1
