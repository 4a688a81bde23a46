"""Per-layer figures from one cProfile pass, summed by module of src/skewhom.

The profiler is started and stopped by the benchmark around each request,
so nothing inside the program changes.  A layer is one module; the standard
library's ``fractions`` counts as the scalar layer, because ``Fraction`` is
one of its two scalar types.  Functions of no layer (builtins such as
``sum``, other standard-library code, dataclass-generated ``__init__``) are
charged to the layer that calls them most, so their time is not lost.  A
call that reaches a layer through such a function (a generator resumed by
``all``, a ``__add__`` run by ``sum``) counts as coming from inside the layer
when the layer itself called that function, and from outside otherwise.
"""

from __future__ import annotations

import fractions
from collections import Counter
from pathlib import Path

LAYERS = ("scalars", "linalg", "algebra", "constructions", "representation", "cohomology",
          "se4geometry", "cli")
# (layer, function name) pairs whose call counts are reported on their own
COUNTED = (("algebra", "bracket_eval"), ("linalg", "mat_mul"), ("linalg", "mat_pow"),
           ("cohomology", "coboundary_at"), ("cohomology", "cochain_eval"))
LOADERS = (("algebra", "load_algebra"), ("representation", "load_representation"),
           ("cohomology", "load_cochain"))
RENDERERS = (("cli", "render"), ("cli", "_emit"), ("cli", "_witness_str"))
BENCH = "bench"

PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "calls_in")]
    + ["scalars.quadext_calls", "scalars.fraction_calls"]
    + [f"{layer}.{name}.calls" for layer, name in COUNTED]
    + ["cli.load_s", "cli.render_s", "trace.pass_s"]
)


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class LayerMap:
    def __init__(self, package_dir: Path, bench_dir: Path, quadext_codes: set):
        self.package_dir = package_dir.resolve()
        self.bench_dir = bench_dir.resolve()
        self.fractions_file = Path(fractions.__file__).resolve()
        self.quadext_codes = quadext_codes

    def own(self, func) -> str | None:
        filename = func[0]
        if filename in ("~", "") or filename.startswith("<"):
            return None
        path = Path(filename).resolve()
        if path.parent == self.package_dir and path.stem in LAYERS:
            return path.stem
        if path == self.fractions_file:
            return "scalars"
        if path.parent == self.bench_dir:
            return BENCH
        return None


def aggregate(stats: dict, layers: LayerMap, speed: float, pass_s: float) -> dict:
    """Per-layer metrics from ``Profile.stats``: {func: (cc, nc, tt, ct, callers)}.

    Profiled times are multiplied by ``speed``, the traced round's scale to
    the reference speed, so they read in the units of ``pass_s``.
    """
    own = {f: layers.own(f) for f in stats}
    resolved: dict = {}

    def resolve(func, seen=()):
        if own.get(func) is not None:
            return own[func]
        if func in resolved:
            return resolved[func]
        votes = Counter()
        if func in stats:
            for caller, edge in stats[func][4].items():
                if caller in seen:
                    continue
                layer = resolve(caller, seen + (func,))
                if layer is not None:
                    votes[layer] += edge[0]
        layer = max(sorted(votes), key=votes.__getitem__) if votes else None
        if not seen:
            resolved[func] = layer
        return layer

    def within(caller, layer) -> bool:
        """A call from ``layer`` itself, directly or through a builtin it called."""
        if own.get(caller) is not None:
            return own[caller] == layer
        return caller in stats and any(resolve(c) == layer for c in stats[caller][4])

    out = {name: 0 for name in PER_LAYER}
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        layer = resolve(func)
        if layer in LAYERS:
            out[f"{layer}.self_s"] += tt
        mine = own[func]
        if mine not in LAYERS:
            continue
        out[f"{mine}.calls"] += nc
        internal = sum(edge[0] for caller, edge in callers.items() if within(caller, mine))
        out[f"{mine}.calls_in"] += nc - internal
        if (func[0], func[1], func[2]) in layers.quadext_codes:
            out["scalars.quadext_calls"] += nc
        if Path(func[0]).resolve() == layers.fractions_file:
            out["scalars.fraction_calls"] += nc
        key = (mine, func[2])
        if key in COUNTED:
            out[f"{mine}.{func[2]}.calls"] += nc
        if key in LOADERS:
            out["cli.load_s"] += ct
        if key in RENDERERS:
            out["cli.render_s"] += ct
    for name in PER_LAYER:
        if unit_of(name) == "s":
            out[name] *= speed
    out["trace.pass_s"] = pass_s
    return out
