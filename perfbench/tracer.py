"""Tracing of toricalc from outside the package.

``Tracer.install()`` wraps the public functions of the package's modules
and puts each wrapper into every ``toricalc`` module namespace that holds
the function. The modules import one another with ``from .x import y``,
so patching only the defining module would miss internal calls such as
``semigroups.solve_rational`` or ``actions.face``.

Public entry points get spans (name, start, end, parent, job id) kept in
flat arrays; the hot helpers ``primitive`` and ``Cone.contains`` only get
counted. A few wrappers also record counts at the call site that the
per-layer metrics need (box points scanned and kept, faces found empty,
bytes written, ...). The wrappers are built once; ``install()`` and
``uninstall()`` swap them in and out.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

import toricalc
from toricalc import actions, cli, jsonio, lattice, polyhedra, semigroups
from toricalc.semigroups import Cone

LAYERS = {"lattice": lattice, "polyhedra": polyhedra, "semigroups": semigroups,
          "actions": actions, "jsonio": jsonio, "cli": cli}
COUNT_ONLY = {"lattice.primitive"}
CLI_ENTRY_POINTS = {"execute"}
JSONIO_PARSE = {"parse_fraction", "polyhedron_from_json", "action_from_json", "matrix_from_json"}
NAMESPACES = [toricalc] + list(LAYERS.values())


def public_functions(layer: str, module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if layer == "cli" and attr not in CLI_ENTRY_POINTS:
            continue
        yield attr, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._projected: set = set()
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module in LAYERS.items():
            for attr, fn in public_functions(layer, module):
                span_name = f"{layer}.{attr}"
                for ns in NAMESPACES:
                    if vars(ns).get(attr) is not fn:
                        continue
                    if span_name in COUNT_ONLY:
                        wrapper = self._counter(fn, f"{span_name}.calls")
                    else:
                        wrapper = self._span(fn, span_name, self._hook(span_name, ns.__name__))
                    self._patches.append((ns, attr, fn, wrapper))
        contains = Cone.__dict__["contains"]
        self._patches.append((Cone, "contains", contains, self._counter(contains, "semigroups.reduction_tests")))

    # ------------------------------------------------------------ jobs

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self._projected.clear()

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, span_name: str, hook=None):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        start, end, name, parent, job_of, stack = self.start, self.end, self.name, self.parent, self.job_of, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, span_name: str, namespace: str):
        """Call-site counts for one wrapped function seen from one module."""
        counts = self.counts
        if span_name == "lattice.solve_rational" and namespace == "toricalc.semigroups":
            def box(args, t):
                counts["semigroups.box_points_scanned"] += 1
                if t is not None and all(0 <= ti < 1 for ti in t):
                    counts["semigroups.box_points_kept"] += 1
            return box
        if span_name == "polyhedra.face":
            def face(args, result):
                counts["polyhedra.face.empty"] += result is None
                if namespace == "toricalc.actions":
                    counts["actions.supports_tested"] += 1
            return face
        if span_name == "actions.quotient_projection":
            def projection(args, result):
                key = args[0]
                counts["actions.quotient_projection.repeats"] += key in self._projected
                self._projected.add(key)
            return projection
        if span_name == "semigroups.hilbert_basis":
            return lambda args, basis: counts.update({"semigroups.hilbert_basis.size": len(basis)})
        if span_name == "polyhedra.lattice_points":
            return lambda args, pts: counts.update({"polyhedra.lattice_points.points": len(pts)})
        if span_name == "jsonio.dump_canonical":
            return lambda args, text: counts.update({"jsonio.bytes_out": len(text.encode())})
        if span_name == "cli.execute":
            return lambda args, out: counts.update({"cli.nonzero_exit": out[0] != 0})
        return None

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # ------------------------------------------------------------ results

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            self_s[nid] += self.end[i] - self.start[i] - child[i]
            calls[nid] += 1
        return dict(zip(self.names, self_s)), Counter(dict(zip(self.names, calls)))

    def write(self, path) -> None:
        """Spans as gzipped CSV: span,parent,job,name,start_s,end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,parent,job,name,start_s,end_s\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.job_of[i]},{self.names[self.name[i]]},"
                        f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def layer_metrics(tracer: Tracer, wall_s: float, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def total(prefix, names=None):
        return sum(v for k, v in self_s.items()
                   if k.startswith(prefix + ".") and (names is None or k.split(".", 1)[1] in names))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        if layer not in ("jsonio", "cli"):
            m[f"{layer}.self_s"] = (total(layer), "s")
    m.update({
        "lattice.solve_rational.calls": (calls["lattice.solve_rational"], "count"),
        "lattice.solve_rational.self_s": (self_s.get("lattice.solve_rational", 0.0), "s"),
        "lattice.snf.calls": (calls["lattice.snf"], "count"),
        "lattice.snf.self_s": (self_s.get("lattice.snf", 0.0), "s"),
        "lattice.rational_rank.calls": (calls["lattice.rational_rank"], "count"),
        "lattice.primitive.calls": (c["lattice.primitive.calls"], "count"),
        "polyhedra.face.calls": (calls["polyhedra.face"], "count"),
        "polyhedra.face.self_s": (self_s.get("polyhedra.face", 0.0), "s"),
        "polyhedra.face.empty_ratio": (ratio(c["polyhedra.face.empty"], calls["polyhedra.face"]), "ratio"),
        "polyhedra.vrep.calls": (calls["polyhedra.vrep"], "count"),
        "polyhedra.vrep.self_s": (self_s.get("polyhedra.vrep", 0.0), "s"),
        "polyhedra.f_vector.self_s": (self_s.get("polyhedra.f_vector", 0.0), "s"),
        "polyhedra.lattice_points.self_s": (self_s.get("polyhedra.lattice_points", 0.0), "s"),
        "polyhedra.lattice_points.points": (c["polyhedra.lattice_points.points"], "count"),
        "semigroups.hilbert_basis.self_s": (self_s.get("semigroups.hilbert_basis", 0.0), "s"),
        "semigroups.hilbert_basis.size": (c["semigroups.hilbert_basis.size"], "count"),
        "semigroups.hilbert_function.self_s": (self_s.get("semigroups.hilbert_function", 0.0), "s"),
        "semigroups.relation_space.self_s": (self_s.get("semigroups.relation_space", 0.0), "s"),
        "semigroups.box_points_scanned": (c["semigroups.box_points_scanned"], "count"),
        "semigroups.box_points_kept": (c["semigroups.box_points_kept"], "count"),
        "semigroups.box_hit_ratio": (ratio(c["semigroups.box_points_kept"], c["semigroups.box_points_scanned"]), "ratio"),
        "semigroups.reduction_tests": (c["semigroups.reduction_tests"], "count"),
        "actions.quotient_projection.calls": (calls["actions.quotient_projection"], "count"),
        "actions.quotient_projection.repeat_ratio": (
            ratio(c["actions.quotient_projection.repeats"], calls["actions.quotient_projection"]), "ratio"),
        "actions.supports_tested": (c["actions.supports_tested"], "count"),
        "actions.minimal_unstable_supports.self_s": (self_s.get("actions.minimal_unstable_supports", 0.0), "s"),
        "actions.is_semistable.self_s": (self_s.get("actions.is_semistable", 0.0), "s"),
        "actions.evaluate_invariants.self_s": (self_s.get("actions.evaluate_invariants", 0.0), "s"),
        "jsonio.parse.self_s": (total("jsonio", JSONIO_PARSE), "s"),
        "jsonio.dump.self_s": (total("jsonio") - total("jsonio", JSONIO_PARSE), "s"),
        "jsonio.bytes_out": (c["jsonio.bytes_out"], "B"),
        "cli.execute.self_s": (self_s.get("cli.execute", 0.0), "s"),
        "cli.nonzero_exit": (c["cli.nonzero_exit"], "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.jobs": (jobs, "count"),
    })
    return m


def dominance(workload: str, m: dict[str, tuple[float, str]]) -> list[str]:
    """The layer-share claims the benchmark design rests on, each marked as
    holding or not on this run. Shares are self time over traced wall time."""
    wall = m["trace.wall_s"][0] or 1.0

    def share(*names):
        return sum(m[n][0] for n in names) / wall

    claims = {
        "ring": ("semigroups + lattice.solve_rational self time >= 50% of traced wall",
                 share("semigroups.self_s", "lattice.solve_rational.self_s"), 0.5),
        "semistability": ("polyhedra + actions self time >= 50% of traced wall",
                          share("polyhedra.self_s", "actions.self_s"), 0.5),
        "cli": ("cli.execute + jsonio self time >= 10% of traced wall",
                share("cli.execute.self_s", "jsonio.parse.self_s", "jsonio.dump.self_s"), 0.1),
    }
    text, value, floor = claims[workload]
    verdict = "holds" if value >= floor else "DOES NOT HOLD"
    lines = [f"claim: {text}: {value:.1%} -> {verdict}"]
    for layer in ("lattice", "polyhedra", "semigroups", "actions"):
        lines.append(f"  share {layer}: {share(layer + '.self_s'):.1%}")
    lines.append(f"  share cli.execute: {share('cli.execute.self_s'):.1%}")
    lines.append(f"  share jsonio: {share('jsonio.parse.self_s', 'jsonio.dump.self_s'):.1%}")
    return lines
