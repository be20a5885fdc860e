"""Per-layer tracing installed from outside the program.

Each traced public function is replaced by a wrapper in *every* loaded
relmeta module that holds a reference to it: `from .typecheck import check`
copies the function into equations, models, translate and cli, so patching
only the defining module would miss most calls.  A wrapper records a span
(layer, start, end, parent span, item id).  Spans stay in memory until the
run ends; self time is a span's duration minus its direct children's.

models.eval_deriv is deliberately not wrapped (millions of recursive calls
per run); environments are counted by wrapping the env_space generator.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter

MARK = "__perfbench_original__"


def _ungraded_laws(mod):
    return [n for n in vars(mod) if n.startswith("check_")
            and n.endswith("_laws") and n != "check_graded_laws"]


def _instances(mod):
    return [n for n in vars(mod) if n.endswith("_instance")]


# (module, function names, layer)
TARGETS = [
    ("relmeta.models", ["semantic_eq"], "models.semantic_eq"),
    ("relmeta.typecheck", ["check"], "typecheck.check"),
    ("relmeta.equations", ["redexes"], "equations.redexes"),
    ("relmeta.equations", ["normalize"], "equations.normalize"),
    ("relmeta.equations", ["axiom_moves"], "equations.axiom_moves"),
    ("relmeta.equations", ["check_eq"], "equations.check_eq"),
    ("relmeta.syntax", ["parse_term", "parse_type", "parse_context"],
     "syntax.parse"),
    ("relmeta.translate", ["gmm_to_lnl"], "translate.gmm_to_lnl"),
    ("relmeta.translate", ["arrow_to_armm"], "translate.arrow_to_armm"),
    ("relmeta.lawcheck", ["check_graded_laws"], "lawcheck.graded"),
    ("relmeta.lawcheck", _ungraded_laws, "lawcheck.ungraded"),
    ("relmeta.signatures", ["load_signature"], "signatures.load"),
    ("relmeta.models", ["load_binding"], "signatures.load"),
    ("relmeta.lawcheck", _instances, "signatures.load"),
]


def _count_steps(counts, res):
    counts["equations.normalize.steps"] += len(res.steps)


def _count_moves(counts, res):
    counts["equations.axiom_moves.moves"] += len(res)


def _count_unknown(counts, res):
    counts["equations.check_eq.unknown"] += res.status == "UNKNOWN"


def _count_laws(counts, rep):
    counts["lawcheck.laws_checked"] += len(rep.lines)
    counts["lawcheck.laws_skipped"] += sum(l.skipped for l in rep.lines)


# layer -> how its result feeds the counters
POST = {
    "equations.normalize": _count_steps,
    "equations.axiom_moves": _count_moves,
    "equations.check_eq": _count_unknown,
    "lawcheck.graded": _count_laws,
    "lawcheck.ungraded": _count_laws,
}


def relmeta_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relmeta" or n.startswith("relmeta."))]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers currently bound in any relmeta module."""
    return [f"{m.__name__}.{n}" for m in relmeta_modules()
            for n, v in vars(m).items() if hasattr(v, MARK)]


class Tracer:
    def __init__(self):
        self.spans = []       # (layer, start, end, parent index, item id)
        self.stack = []
        self.item = None
        self.counts = defaultdict(int)
        self._undo = []       # (module, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, orig, layer):
        spans, stack, counts, post = self.spans, self.stack, self.counts, \
            POST.get(layer)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, self.item)
            if post is not None:
                post(counts, res)
            return res

        setattr(wrapper, MARK, orig)
        wrapper.__name__ = orig.__name__
        return wrapper

    def _wrap_env_space(self, orig):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for env in orig(*args, **kwargs):
                counts["models.env_space.envs"] += 1
                yield env

        setattr(wrapper, MARK, orig)
        return wrapper

    def _rebind(self, orig, wrapper):
        for mod in relmeta_modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, names, layer in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name in (names(mod) if callable(names) else names):
                orig = getattr(mod, name, None)
                if callable(orig) and not hasattr(orig, MARK):
                    self._rebind(orig, self._wrap(orig, layer))
        models = sys.modules.get("relmeta.models")
        orig = getattr(models, "env_space", None)
        if orig is not None:
            self._rebind(orig, self._wrap_env_space(orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._undo):
            setattr(mod, name, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_totals(self):
        """(calls by layer, self seconds by layer)."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (layer, t0, t1, _, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[i]
        return calls, self_s

    def write(self, path):
        """All spans, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("index\tlayer\tstart\tend\tparent\titem\n")
            for i, (layer, t0, t1, parent, item) in enumerate(self.spans):
                f.write(f"{i}\t{layer}\t{t0:.9f}\t{t1:.9f}\t{parent}\t"
                        f"{item}\n")
