"""Layer spans for the traced run, recorded from the benchmark's side.

``install`` wraps sievelab's coarse public entry points and rebinds each
wrapped name in every ``sievelab.*`` namespace that holds it (for example
both ``sievelab.norms.delta_rational`` and
``sievelab.sieve_apps.delta_rational``), so calls made inside the package
pass through the wrappers while ``src/`` stays untouched.

A span's self time is its duration minus the time of its direct child
spans; a layer's time is the sum of its spans' self times.  Spans are
aggregated in memory as they close: one process, one thread.

A wrapped name that no longer exists is reported in ``missing``; a metric
whose every source is missing reads ``None``, never a silent zero.
"""

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Nested spans aggregated into per-layer self time and span counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # per open span: [start, child seconds]
        self.self_s = defaultdict(float)
        self.spans = Counter()

    def enter(self):
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, layer, frame):
        duration = self.clock() - frame[0]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        self.self_s[layer] += duration - frame[1]
        self.spans[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration


class Counts:
    """What the wrappers observe about results, beyond time."""

    def __init__(self):
        self.matvecs = 0
        self.gram_dim = 0
        self.gram_bytes = 0
        self.family_members = 0
        self.index_n = 0
        self.norm_keys = []


def _on_solve(counts, args, kwargs, out):
    counts.matvecs += out.iterations


def _on_gram(counts, args, kwargs, out):
    n = out.matrix.shape[0]
    counts.gram_dim = max(counts.gram_dim, n)
    counts.gram_bytes += n * n * 16  # complex128, computed not measured


def _on_members(counts, args, kwargs, out):
    counts.family_members = max(counts.family_members, len(out))


def _on_index(counts, args, kwargs, out):
    counts.index_n = max(counts.index_n, len(out))


def _on_rational_norm(counts, args, kwargs, out):
    counts.norm_keys.append(tuple(args[:2]))


# (module, name, layer whose self time the span adds to, result hook).
# A layer of None counts results without opening a span, so the call's
# time stays with its caller.
WRAPS = [
    ("cli", "run", "cli.self", None),
    ("norms", "delta", "norms.delta_self", None),
    ("norms", "delta_add", "norms.delta_self", None),
    ("norms", "delta_rational", "norms.delta_self", _on_rational_norm),
    ("norms", "top_eigenvalue", "norms.solve", _on_solve),
    ("norms", "gram_multiplicative", "norms.gram", _on_gram),
    ("norms", "gram_additive", "norms.gram", _on_gram),
    ("norms", "gram_rational", "norms.gram", _on_gram),
    ("norms", "family_members", None, _on_members),
    ("characters", "char_group", "characters.tables", None),
    ("characters", "primitive_chars", "characters.tables", None),
    ("characters", "value_table", "characters.tables", None),
    ("rationals", "enumerate_pairs", "rationals.enumerate", _on_index),
    ("rationals", "rationals_up_to", "rationals.enumerate", _on_index),
    ("sieve_apps", "sifted_set", "sieve_apps.sift", None),
    ("sieve_apps", "big_H", "sieve_apps.big_H", None),
    ("kernels", "coset_identity_check", "kernels.check", None),
    ("kernels", "theta_separation_check", "kernels.check", None),
    ("kernels", "chi_factorize", "kernels.check", None),
    ("kernels", "chiseparation_check", "kernels.check", None),
    ("kernels", "primitivity_kernel", "kernels.check", None),
    ("kernels", "kernel_detection_value", "kernels.check", None),
]


def _wrap(fn, tracer, counts, layer, hook):
    if layer is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(counts, args, kwargs, out)
            return out
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(layer, frame)
        if hook is not None:
            hook(counts, args, kwargs, out)
        return out
    return traced


def package_modules(package="sievelab"):
    """Import and return the package and all of its submodules."""
    root = importlib.import_module(package)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def install(tracer, counts, wraps=WRAPS, package="sievelab"):
    """Wrap every listed name and rebind it in every package namespace that
    holds the same object.  Returns (missing names, restore callable)."""
    mods = package_modules(package)
    missing, undo = [], []
    for mod_name, name, layer, hook in wraps:
        mod = sys.modules.get(f"{package}.{mod_name}")
        orig = getattr(mod, name, None)
        if not callable(orig):
            missing.append(f"{mod_name}.{name}")
            continue
        wrapped = _wrap(orig, tracer, counts, layer, hook)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, orig))

    def restore():
        for m, attr, value in reversed(undo):
            setattr(m, attr, value)

    return missing, restore


# per-layer metric -> (unit, source names, value from tracer and counts)
def _ms(layer):
    return lambda tr, c: 1000.0 * tr.self_s.get(layer, 0.0)


def _reuse(tr, c):
    return len(set(c.norm_keys)) / len(c.norm_keys) if c.norm_keys else 0.0


_SOLVE = ["norms.top_eigenvalue"]
_GRAM = ["norms.gram_multiplicative", "norms.gram_additive", "norms.gram_rational"]
_DELTA = ["norms.delta", "norms.delta_add", "norms.delta_rational"]
_TABLES = ["characters.char_group", "characters.primitive_chars", "characters.value_table"]
_ENUM = ["rationals.enumerate_pairs", "rationals.rationals_up_to"]
_CHECKS = ["kernels.coset_identity_check", "kernels.theta_separation_check",
           "kernels.chi_factorize", "kernels.chiseparation_check",
           "kernels.primitivity_kernel", "kernels.kernel_detection_value"]

LAYER_METRICS = {
    "norms.solve_ms": ("ms", _SOLVE, _ms("norms.solve")),
    "norms.matvecs": ("count", _SOLVE, lambda tr, c: c.matvecs),
    "norms.solve_calls": ("count", _SOLVE, lambda tr, c: tr.spans["norms.solve"]),
    "norms.gram_ms": ("ms", _GRAM, _ms("norms.gram")),
    "norms.gram_calls": ("count", _GRAM, lambda tr, c: tr.spans["norms.gram"]),
    "norms.gram_dim": ("count", _GRAM, lambda tr, c: c.gram_dim),
    "norms.gram_bytes": ("bytes", _GRAM, lambda tr, c: c.gram_bytes),
    "norms.delta_self_ms": ("ms", _DELTA, _ms("norms.delta_self")),
    "norms.family_members": ("count", ["norms.family_members"],
                             lambda tr, c: c.family_members),
    "characters.tables_ms": ("ms", _TABLES, _ms("characters.tables")),
    "characters.table_calls": ("count", _TABLES,
                               lambda tr, c: tr.spans["characters.tables"]),
    "rationals.enumerate_ms": ("ms", _ENUM, _ms("rationals.enumerate")),
    "rationals.index_n": ("count", _ENUM, lambda tr, c: c.index_n),
    "sieve_apps.sift_ms": ("ms", ["sieve_apps.sifted_set"], _ms("sieve_apps.sift")),
    "sieve_apps.big_H_ms": ("ms", ["sieve_apps.big_H"], _ms("sieve_apps.big_H")),
    "sieve_apps.norm_calls": ("count", ["norms.delta_rational"],
                              lambda tr, c: len(c.norm_keys)),
    "sieve_apps.norm_reuse": ("ratio", ["norms.delta_rational"], _reuse),
    "kernels.check_ms": ("ms", _CHECKS, _ms("kernels.check")),
    "kernels.checks": ("count", _CHECKS, lambda tr, c: tr.spans["kernels.check"]),
    "cli.self_ms": ("ms", ["cli.run"], _ms("cli.self")),
}


def layer_metrics(tracer, counts, missing):
    """Every per-layer metric as {name: value}; None when all of the
    metric's sources are missing."""
    out = {}
    for name, (unit, sources, value) in LAYER_METRICS.items():
        if all(s in missing for s in sources):
            out[name] = None
        else:
            out[name] = float(value(tracer, counts))
    return out
