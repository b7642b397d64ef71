"""Spans around calls into the package's layers, recorded from outside it.

`Tracer.install()` wraps the public functions, generators and constructors
listed in `TARGETS` wherever the package's modules refer to them, plus the
derivations registered in `counting.METHODS`, the self-check registry of
`verify` and `cli.main`.  Each call (or each `next()` of a wrapped generator)
records one span: name id, start, end and the id of the span that was open
when it began.  Spans live in flat arrays until `take()` hands them over;
`reduce()` turns one batch into calls, total and self time per name, self time
being a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from time import perf_counter

# (module, attribute, kind): "call" is a plain function, "gen" a function
# returning an iterator (each next() is a span), "class" a constructor.
TARGETS = (
    ("orders", "WeakOrder", "class"),
    ("orders", "is_weakly_single_peaked", "call"),
    ("enumeration", "rank_vectors", "gen"),
    ("enumeration", "kimura_decompositions", "gen"),
    ("enumeration", "generate", "gen"),
    ("structure", "KimuraDecomposition", "class"),
    ("structure", "build", "call"),
    ("structure", "decompose", "call"),
    ("structure", "induced_weak_order", "call"),
    ("structure", "weak_order_from_degrees", "call"),
    ("structure", "commutative_characterization", "call"),
    ("structure", "classify", "call"),
    ("structure", "monotonizing_orders", "gen"),
    ("magmas", "FiniteBinOp", "class"),
    ("magmas", "is_order_preserving", "call"),
    ("magmas", "is_associative", "call"),
    ("magmas", "is_quasitrivial", "call"),
    ("magmas", "is_idempotent", "call"),
    ("magmas", "is_commutative", "call"),
    ("magmas", "neutral_elements", "call"),
    ("magmas", "annihilator_elements", "call"),
    ("magmas", "degree_sequence", "call"),
    ("formats", "emit_cayley_line", "call"),
    ("formats", "emit_weak_order", "call"),
    ("formats", "emit_total_order", "call"),
    ("formats", "emit_classification", "call"),
    ("formats", "load_table", "call"),
    ("render", "render_contour", "call"),
    ("oracle", "brute_count_quasitrivial_associative", "call"),
    ("oracle", "check_neutral_monotone_implies_quasitrivial", "call"),
    ("oracle", "check_commutative_monotone_implies_associative", "call"),
    ("oracle", "brute_count_monotonizable", "call"),
    ("verify", "count_by_enumeration", "call"),
)


def _modules():
    return {
        name: sys.modules[f"quasitrivial.{name}"]
        for name in ("orders", "magmas", "structure", "enumeration", "formats",
                     "render", "counting", "oracle", "verify", "cli")
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list = []
        self.reset()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.yields = [0] * len(self.names)
        self.masks = 0

    def take(self):
        """Hand over the spans recorded since the last reset, and reset."""
        batch = (self.kind, self.parent, self.start, self.end, self.yields, self.masks)
        self.reset()
        return batch

    # -- wrappers ---------------------------------------------------------

    def _call(self, fn, nid):
        tr = self

        def traced(*args, **kwargs):
            sid = len(tr.kind)
            tr.kind.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.end.append(0.0)
            tr.stack.append(sid)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[sid] = perf_counter()
                tr.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _gen(self, fn, nid):
        call = self._call(fn, nid)
        tr = self

        def traced(*args, **kwargs):
            return _TracedIter(call(*args, **kwargs), nid, tr)

        traced.__wrapped__ = fn
        return traced

    def _masks(self, fn):
        # the raw search visits 2^(n(n-1)) masks, split evenly across shards
        tr = self

        def counted(n, shard_index=0, shard_count=1):
            result = fn(n, shard_index, shard_count)
            tr.masks += (1 << (n * (n - 1))) // shard_count
            return result

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import quasitrivial.cli  # noqa: F401  (loads every module it uses)

        mods = _modules()
        for mod_name, attr, kind in TARGETS:
            nid = self._id(f"{mod_name}.{attr}")
            original = getattr(mods[mod_name], attr)
            if kind == "class":
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._call(init, nid)
                continue
            fn = original
            if attr == "brute_count_quasitrivial_associative":
                fn = self._masks(original)
            wrapped = (self._gen if kind == "gen" else self._call)(fn, nid)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for registry in mods["counting"].METHODS.values():
            for method, fn in list(registry.items()):
                nid = self._id(f"counting.{method}")
                self._undo.append((registry, method, fn))
                registry[method] = self._call(fn, nid)
        verify = mods["verify"]
        for attr in ("QUICK_CHECKS", "FULL_CHECKS"):
            checks = getattr(verify, attr)
            self._undo.append((verify, attr, checks))
            setattr(verify, attr, tuple(
                (name, self._call(fn, self._id(f"verify.{name}"))) for name, fn in checks
            ))
        cli = mods["cli"]
        self._undo.append((cli, "main", cli.main))
        cli.main = self._call(cli.main, self._id("cli"))
        self.reset()

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()


class _TracedIter:
    """An iterator whose every next() is a span of the producing function."""

    __slots__ = ("_it", "_nid", "_tr")

    def __init__(self, it, nid, tr):
        self._it, self._nid, self._tr = it, nid, tr

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tr
        sid = len(tr.kind)
        tr.kind.append(self._nid)
        tr.parent.append(tr.stack[-1])
        tr.end.append(0.0)
        tr.stack.append(sid)
        tr.start.append(perf_counter())
        try:
            value = next(self._it)
        finally:
            tr.end[sid] = perf_counter()
            tr.stack.pop()
        tr.yields[self._nid] += 1
        return value


def reduce(names, batch) -> dict:
    """Per-name calls, total and self seconds, yields and the count of
    is_order_preserving calls made directly by monotonizing_orders."""
    kind, parent, start, end, yields, masks = batch
    m = len(names)
    calls = [0] * m
    total = [0.0] * m
    self_s = [0.0] * m
    ids = {name: i for i, name in enumerate(names)}
    mono = ids.get("structure.monotonizing_orders", -1)
    iop = ids.get("magmas.is_order_preserving", -1)
    tried = 0
    for i in range(len(kind)):
        k = kind[i]
        d = end[i] - start[i]
        calls[k] += 1
        total[k] += d
        self_s[k] += d
        p = parent[i]
        if p >= 0:
            pk = kind[p]
            self_s[pk] -= d
            if k == iop and pk == mono:
                tried += 1
    out = {
        name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i], "yields": yields[i]}
        for i, name in enumerate(names)
        if calls[i]
    }
    return {"names": out, "orders_tried": tried, "masks": masks}


def write_batch(handle, names, batch, label: str) -> None:
    """Append one batch of spans: a length-prefixed JSON header, then the
    name id, parent id, start and end arrays."""
    kind, parent, start, end, yields, masks = batch
    header = json.dumps({
        "label": label, "names": names, "count": len(kind),
        "yields": yields[: len(names)], "masks": masks,
    }).encode()
    handle.write(struct.pack("<Q", len(header)))
    handle.write(header)
    for arr in (kind, parent, start, end):
        arr.tofile(handle)


def read_batches(handle):
    """Yield (label, names, batch) for every batch in a span file."""
    while True:
        raw = handle.read(8)
        if not raw:
            return
        header = json.loads(handle.read(struct.unpack("<Q", raw)[0]))
        count = header["count"]
        arrays = []
        for code in ("H", "l", "d", "d"):
            arr = array(code)
            arr.fromfile(handle, count)
            arrays.append(arr)
        yields = header["yields"] + [0] * (len(header["names"]) - len(header["yields"]))
        yield header["label"], header["names"], (*arrays, yields, header["masks"])
