"""Span tracing of quiverhopf's public functions, from outside the package.

``Tracer.install`` wraps each target function and rebinds the name in every
``quiverhopf.*`` namespace that holds it, so calls between modules and calls
inside one module both go through the wrapper.  Spans are kept in memory in
parallel lists (name id, start, end, parent index) plus a dict of tags, so
recording one creates no object for the garbage collector to track.
``uninstall`` restores every rebound name and checks that it is the original
object again.  The analysis functions below turn the spans into per-function
metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

# Public functions timed per module (modules are src/quiverhopf/*.py).
TARGETS: dict[str, tuple[str, ...]] = {
    "groups": ("parse_group", "conjugacy_classes", "centralizer_subgroup",
               "automorphisms"),
    "modrep": ("choose_prime", "character_table", "group_table",
               "irrep_matrices"),
    "linalg": ("matmul", "rank", "rref", "solve", "nullspace"),
    "quiver": ("parse_ramification",),
    "rsr": ("make_rsr", "enumerate_types", "count_classes", "rsr_type",
            "isomorphic"),
    "bimodule": ("build_bimodule", "verify_bimodule"),
    "yd": ("coinvariant_yd", "braiding", "verify_yd", "quantum_symmetrizer",
           "nichols_dims", "nichols_dims_multiprime"),
    "typeone": ("tensor_hopf", "verify_hopf", "skew_primitive_report"),
    "cli": ("main",),
}

FUNCTIONS = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
OP = "bench.op"                 # the benchmark's own span around each operation
SYMMETRIZER_DEGREES = range(2, 6)
VERIFIERS = ("bimodule.verify_bimodule", "yd.verify_yd", "typeone.verify_hopf")
HIT_RATIOS = ("groups.centralizer_subgroup", "modrep.group_table",
              "modrep.irrep_matrices")
_MARK = "__qhbench_original__"


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rows_cols(shape: tuple) -> tuple[int, int]:
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


# -- what each wrapper records at the call boundary ----------------------------
# A pre hook maps (args, kwargs) to the span's tag before the call; a post
# hook maps the result to the tag after it.  Both are kept cheap and run
# outside the span's own interval; metrics() derives the counts from tags.

def _shape(a) -> tuple:
    s = getattr(a, "shape", None)
    return np.shape(a) if s is None else s


def _operand_shapes(args, kwargs):
    return _shape(_arg(args, kwargs, 0, "a")), _shape(_arg(args, kwargs, 1, "b"))


def _first_shape(args, kwargs):
    return _shape(_arg(args, kwargs, 0, "a"))


def _symmetrizer_size(args, kwargs):
    return _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 0, "c").dim


def _cache_hit(key_of: Callable):
    def hook(args, kwargs):
        return key_of(args, kwargs) in _arg(args, kwargs, 0, "g").caches
    return hook


def _centralizer_key(args, kwargs):
    x = _arg(args, kwargs, 1, "ctx_or_elt")
    return ("centralizer", getattr(x, "rep", x))


def _chartab_key(args, kwargs):
    return ("chartab", _arg(args, kwargs, 1, "f").p)


def _cases(report) -> int:
    return sum(c.checked for c in report.checks)


PRE_HOOKS = {
    "linalg.matmul": _operand_shapes,
    "linalg.rank": _first_shape,
    "linalg.rref": _first_shape,
    "yd.quantum_symmetrizer": _symmetrizer_size,
    "groups.centralizer_subgroup": _cache_hit(_centralizer_key),
    "modrep.group_table": _cache_hit(_chartab_key),
}
POST_HOOKS = {name: _cases for name in VERIFIERS}


class Tracer:
    """Records spans of wrapped functions; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = [OP] + FUNCTIONS
        self.fid: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tag: dict[int, object] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn: Callable, pre=None, post=None) -> Callable:
        fids, starts, ends, parents, tags = self.fid, self.start, self.end, self.parent, self.tag
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if pre is not None:
                tags[i] = pre(args, kwargs)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                tags[i] = post(result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def op(self, run: Callable, *args):
        """Call run(*args) inside a span of the benchmark's own."""
        return self._wrap(0, run)(*args)

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        # Import every target module first, so that no module imports a wrapper.
        modules = {m: importlib.import_module(f"quiverhopf.{m}") for m in TARGETS}
        spaces = _namespaces()
        for fid, name in enumerate(FUNCTIONS, start=1):
            mod, fn = name.split(".")
            original = getattr(modules[mod], fn, None)
            if original is None:          # removed from the package: no spans
                self.missing.append(name)
                continue
            wrapper = self._wrap(fid, original, PRE_HOOKS.get(name), POST_HOOKS.get(name))
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, attr, wrapper)
                        self._rebound.append((space, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every rebound name; return the names that are still wrong."""
        for space, attr, original in reversed(self._rebound):
            setattr(space, attr, original)
        wrong = [f"{space.__name__}.{attr}" for space, attr, original in self._rebound
                 if getattr(space, attr) is not original]
        self._rebound = []
        return wrong + leftover_wrappers()


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "quiverhopf" or n.startswith("quiverhopf.")]


def leftover_wrappers() -> list[str]:
    """Names in quiverhopf namespaces that are still bound to a wrapper."""
    return [f"{m.__name__}.{attr}" for m in _namespaces()
            for attr, value in list(vars(m).items()) if hasattr(value, _MARK)]


# -- analysis ----------------------------------------------------------------

def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (a, b) in enumerate(zip(start, end)):
        covered, reach = 0.0, a
        for ca, cb in sorted((start[c], end[c]) for c in children.get(i, ())):
            ca, cb = max(ca, reach), min(cb, b)
            if cb > ca:
                covered += cb - ca
                reach = cb
        out.append((b - a) - covered)
    return out


def _has_ancestor(fids: list[int], parent: list[int], i: int, fid: int) -> bool:
    p = parent[i]
    while p >= 0:
        if fids[p] == fid:
            return True
        p = parent[p]
    return False


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls, inclusive and self seconds, plus derived metrics.

    Inclusive time counts a span only when no enclosing span belongs to the
    same function, so recursion is not counted twice.
    """
    names, fids, parent = tracer.names, tracer.fid, tracer.parent
    selfs = self_times(tracer.start, tracer.end, parent)
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for key in ("linalg.matmul.mac", "linalg.matmul.bytes", "linalg.rank.cells",
                "linalg.rref.cells", "yd.quantum_symmetrizer.max_dim"):
        out[key] = 0
    for d in SYMMETRIZER_DEGREES:
        out[f"yd.quantum_symmetrizer.deg{d}_s"] = 0.0
    out["yd.nichols_dims.rank_s"] = 0.0
    for name in VERIFIERS:
        out[f"{name}.cases"] = 0
    out["trace.op_self_s"] = 0.0
    hits: Counter = Counter()
    nichols_fid = names.index("yd.nichols_dims")
    has_children = set(parent)
    for i, (fid, start, end) in enumerate(zip(fids, tracer.start, tracer.end)):
        name = names[fid]
        dur = end - start
        tag = tracer.tag.get(i)
        if fid == 0:
            out["trace.op_self_s"] += selfs[i]
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        if not _has_ancestor(fids, parent, i, fid):
            out[f"{name}.s"] += dur
        if name == "linalg.matmul":
            (m, k), b = _rows_cols(tag[0]), tag[1]
            n = b[1] if len(b) == 2 else 1
            out["linalg.matmul.mac"] += m * k * n
            out["linalg.matmul.bytes"] += 8 * (m * k + k * n + m * n)
        elif name in ("linalg.rank", "linalg.rref"):
            rows, cols = _rows_cols(tag)
            out[f"{name}.cells"] += rows * cols
            if name == "linalg.rank" and _has_ancestor(fids, parent, i, nichols_fid):
                out["yd.nichols_dims.rank_s"] += dur
        elif name == "yd.quantum_symmetrizer":
            n, dim = tag
            if n in SYMMETRIZER_DEGREES:
                out[f"yd.quantum_symmetrizer.deg{n}_s"] += dur
            out["yd.quantum_symmetrizer.max_dim"] = max(
                out["yd.quantum_symmetrizer.max_dim"], dim ** n)
        elif name in VERIFIERS and tag is not None:
            out[f"{name}.cases"] += tag
        elif name == "modrep.irrep_matrices":
            hits[name] += i not in has_children    # a miss builds the table
        elif name in HIT_RATIOS:
            hits[name] += bool(tag)
    for name in HIT_RATIOS:
        calls = out[f"{name}.calls"]
        out[f"{name}.hit_ratio"] = hits[name] / calls if calls else 0.0
    out["trace.self_sum_s"] = sum(selfs)
    return out
