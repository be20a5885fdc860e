"""Brute-force verification of the categorical law sets on finite data.

Everything here is tables: a finite category is explicit hom-sets with a
composition table, a relative monad is an object map plus unit and
extension tables, and each law is data (a Law): quantifier domains in
enumeration order, guards and a predicate.  One engine (_forall) sweeps
every law's instances in the order of its declared domains, outermost
first, and stops at the first failing one: that instance is the law's
replayable witness, and the skip count of a failing law covers the
instances enumerated before it.

Monoidal structure on explicit categories may be *partial* (tensors whose
result leaves the declared object set are simply absent); law instances
that would need an undefined tensor are counted and reported as skips,
never silently dropped.  Structural isomorphisms are strict: the shipped
finite-set skeleton uses lexicographic pairing, under which the
associators and unitors really are identities (the symmetry is not, and is
carried as an explicit table).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from .signatures import all_functions


class LawError(Exception):
    pass


MAX_OBJECTS = 4
MAX_MORPHISMS = 64


# ---------------------------------------------------------------------------
# reports

@dataclass
class LawLine:
    law: str
    status: str  # PASS | FAIL | SKIP-note
    witness: tuple | None = None
    skipped: int = 0

    def render(self):
        s = f"LAW {self.law} {self.status}"
        if self.witness is not None:
            s += f" [witness: {self.witness}]"
        if self.skipped:
            s += f" [skipped {self.skipped} out-of-fragment instances]"
        return s


@dataclass
class LawReport:
    name: str
    lines: list[LawLine] = field(default_factory=list)

    @property
    def ok(self):
        return all(l.status == "PASS" for l in self.lines)

    def add(self, law, witness=None, skipped=0):
        self.lines.append(LawLine(law, "FAIL" if witness is not None
                                  else "PASS", witness, skipped))

    def render(self):
        body = "\n".join(l.render() for l in self.lines)
        passed = sum(1 for l in self.lines if l.status == "PASS")
        return (f"{body}\nSUMMARY {self.name}: {passed}/{len(self.lines)}"
                f" laws pass")


# ---------------------------------------------------------------------------
# finite categories

@dataclass
class FinCategory:
    objects: tuple
    homs: dict            # (a, b) -> tuple of morphism names
    comp: dict            # (g, f) -> h   (g after f)
    ids: dict             # a -> morphism name
    dom: dict
    cod: dict
    unit: str | None = None
    obj_tensor: dict = field(default_factory=dict)   # (a, b) -> c, partial
    mor_tensor: dict = field(default_factory=dict)   # (f, g) -> h, partial
    sigma: dict = field(default_factory=dict)        # (a, b) -> morphism

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def morphisms(self):
        for ms in self.homs.values():
            yield from ms

    def compose(self, g, f):
        if self.cod[f] != self.dom[g]:
            raise LawError(f"not composable: {g} after {f}")
        return self.comp[(g, f)]

    def tensor_obj(self, a, b):
        return self.obj_tensor.get((a, b))

    def tensor_mor(self, f, g):
        return self.mor_tensor.get((f, g))

    def validate(self):
        """Raise LawError naming the first table entry that is missing or
        breaks the category laws."""
        if len(self.objects) > MAX_OBJECTS:
            raise LawError(f"instance exceeds the {MAX_OBJECTS}-object cap")
        nmor = sum(len(m) for m in self.homs.values())
        if nmor > MAX_MORPHISMS:
            raise LawError(f"instance exceeds the {MAX_MORPHISMS}-morphism cap")
        for (a, b), ms in self.homs.items():
            for x in (a, b):
                if x not in self.objects:
                    raise LawError(f"hom {a} {b}: {x} is not an object")
            for f in ms:
                if (self.dom[f], self.cod[f]) != (a, b):
                    raise LawError(f"morphism {f} is in two homs")
        for a in self.objects:
            if self.ids.get(a) not in self.hom(a, a):
                raise LawError(f"id {a}: no identity in hom {a} {a}")
        for a, b, c in itertools.product(self.objects, repeat=3):
            for f in self.hom(a, b):
                for g in self.hom(b, c):
                    h = self.comp.get((g, f))
                    if h is None:
                        raise LawError(f"no `comp {g} {f}` entry")
                    if h not in self.hom(a, c):
                        raise LawError(f"comp {g} {f} = {h}: {h} is not in"
                                       f" hom {a} {c}")
        for (a, b), ms in self.homs.items():
            for f in ms:
                for g, h in ((self.ids[b], f), (f, self.ids[a])):
                    if self.comp[g, h] != f:
                        raise LawError(f"comp {g} {h} = {self.comp[g, h]}:"
                                       f" an identity law needs {f}")
        for a, b, c, d in itertools.product(self.objects, repeat=4):
            for f in self.hom(a, b):
                for g in self.hom(b, c):
                    for k in self.hom(c, d):
                        if self.comp[k, self.comp[g, f]] != \
                                self.comp[self.comp[k, g], f]:
                            raise LawError(f"composition is not associative"
                                           f" at {k}, {g}, {f}")
        if self.unit is not None:
            self._validate_monoidal()

    def _validate_monoidal(self):
        u = self.unit
        for a in self.objects:
            if self.tensor_obj(u, a) not in (None, a) or \
                    self.tensor_obj(a, u) not in (None, a):
                raise LawError("unit tensors must be strict identities")
        # functoriality of the tensor where defined
        for (f, g), h in self.mor_tensor.items():
            a1, b1 = self.dom[f], self.cod[f]
            a2, b2 = self.dom[g], self.cod[g]
            if self.tensor_obj(a1, a2) != self.dom[h] or \
                    self.tensor_obj(b1, b2) != self.cod[h]:
                raise LawError(f"tensor endpoints wrong for {f} (x) {g}")
        for (f, g), h in self.mor_tensor.items():
            for (f2, g2), h2 in self.mor_tensor.items():
                if self.cod[f2] != self.dom[f] or self.cod[g2] != self.dom[g]:
                    continue
                lhs = self.mor_tensor.get((self.compose(f, f2),
                                           self.compose(g, g2)))
                if lhs is not None and lhs != self.compose(h, h2):
                    raise LawError("tensor is not functorial")
        for (a, b), s in self.sigma.items():
            ba = self.tensor_obj(b, a)
            if self.dom[s] != self.tensor_obj(a, b) or self.cod[s] != ba:
                raise LawError(f"symmetry endpoints wrong at ({a},{b})")
            s2 = self.sigma.get((b, a))
            if s2 is not None and \
                    self.compose(s2, s) != self.ids[self.tensor_obj(a, b)]:
                raise LawError(f"symmetry is not involutive at ({a},{b})")


@dataclass
class FinFunctor:
    source: FinCategory | None
    target: FinCategory
    omap: dict
    mmap: dict
    kappa: dict = field(default_factory=dict)  # (a,b) -> морфизм, partial
    iota: str | None = None


def identity_functor(c: FinCategory) -> FinFunctor:
    kappa = {}
    for (a, b), t in c.obj_tensor.items():
        kappa[(a, b)] = c.ids[t]
    return FinFunctor(c, c, {a: a for a in c.objects},
                      {m: m for m in c.morphisms()},
                      kappa=kappa, iota=c.ids[c.unit] if c.unit else None)


# ---------------------------------------------------------------------------
# the FinSet skeleton with lexicographic tensor

def _fname(n, m, images):
    return f"f{n}_{m}_" + ("".join(str(i) for i in images) or "e")


def finset_category(max_size: int = 3) -> FinCategory:
    objects = tuple(str(k) for k in range(max_size + 1))
    homs, comp, ids, dom, cod = {}, {}, {}, {}, {}
    tabs = {}
    for n in range(max_size + 1):
        for m in range(max_size + 1):
            ms = []
            for images in all_functions(n, m):
                name = _fname(n, m, images)
                ms.append(name)
                tabs[name] = (n, m, images)
                dom[name], cod[name] = str(n), str(m)
            homs[(str(n), str(m))] = tuple(ms)
        ids[str(n)] = _fname(n, n, tuple(range(n)))
    for g, (n1, m1, im1) in tabs.items():
        for f, (n0, m0, im0) in tabs.items():
            if m0 != n1:
                continue
            comp[(g, f)] = _fname(n0, m1, tuple(im1[i] for i in im0))
    obj_tensor, mor_tensor, sigma = {}, {}, {}
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            if a * b <= max_size or a == 0 or b == 0:
                obj_tensor[(str(a), str(b))] = str(a * b)
    for f, (n0, m0, im0) in tabs.items():
        for g, (n1, m1, im1) in tabs.items():
            if (str(n0), str(n1)) in obj_tensor and \
                    (str(m0), str(m1)) in obj_tensor:
                images = tuple(im0[i // n1] * m1 + im1[i % n1]
                               for i in range(n0 * n1))
                mor_tensor[(f, g)] = _fname(n0 * n1, m0 * m1, images)
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            if (str(a), str(b)) in obj_tensor:
                images = tuple((i % b) * a + (i // b) for i in range(a * b))
                sigma[(str(a), str(b))] = _fname(a * b, b * a, images)
    cat = FinCategory(objects, homs, comp, ids, dom, cod, unit="1",
                      obj_tensor=obj_tensor, mor_tensor=mor_tensor,
                      sigma=sigma)
    return cat


def finset_table(name):
    n, m, rest = name[1:].split("_", 2)
    images = () if rest == "e" else tuple(int(c) for c in rest)
    return int(n), int(m), images


def finset_mor(n, m, images):
    return _fname(n, m, tuple(images))


# ---------------------------------------------------------------------------
# relative monad data

@dataclass
class FinRelMonadData:
    name: str
    C: FinCategory
    aobjs: tuple                       # source objects
    jmap: dict                         # a -> C-object
    tmap: dict                         # a -> C-object
    eta: dict                          # a -> morphism
    ext_plain: dict | None = None      # (A, B, f) -> g
    ext_strong: dict | None = None     # (Gamma, A, B, f) -> g
    ext_j: dict | None = None          # (GammaA, A, B, f) -> g, GammaA in aobjs
    ext_w: dict | None = None          # (M-obj, A, B, f) -> g
    ext_bi: dict | None = None         # (Gamma, Delta, A, B, f) -> g
    jfun: FinFunctor | None = None     # J with kappa/iota (strong monoidal)
    wfun: FinFunctor | None = None     # W for the W-strong tables

    def copy(self):
        import copy
        return copy.deepcopy(self)


# -- constructions -----------------------------------------------------------

def restrict_monad(name, C: FinCategory, tmap_full: dict, eta_full: dict,
                   ext_full, aobjs, jmap) -> FinRelMonadData:
    """Restriction of (partial) ordinary monad tables along J (an object
    inclusion): the unit at A is the unit at JA and extension is unchanged.
    """
    tmap = {a: tmap_full[jmap[a]] for a in aobjs}
    eta = {a: eta_full[jmap[a]] for a in aobjs}
    ext_plain = {}
    for a in aobjs:
        for b in aobjs:
            for f in C.hom(jmap[a], tmap[b]):
                ext_plain[(a, b, f)] = ext_full(jmap[a], jmap[b], f)
    return FinRelMonadData(name, C, tuple(aobjs), dict(jmap), tmap, eta,
                           ext_plain=ext_plain)


def exception_monad_tables(C: FinCategory, max_source: int):
    """The exception monad X |-> X + 1 on the finite-set skeleton, tabulated
    on sources of size <= max_source (so T stays inside the category)."""
    tmap, eta = {}, {}
    for n in range(max_source + 1):
        tmap[str(n)] = str(n + 1)
        eta[str(n)] = finset_mor(n, n + 1, range(n))

    def ext(x_obj, y_obj, f):
        # f : X -> TY; f* : TX -> TY propagates the error point
        n, m, images = finset_table(f)
        return finset_mor(n + 1, m, tuple(images) + (m - 1,))

    return tmap, eta, ext


def exception_restriction_instance(a_max: int = 2, c_max: int = 3
                                   ) -> FinRelMonadData:
    """Ex-restriction ground truth: the exception monad on sets of size <=
    c_max restricted along the inclusion of sizes <= a_max."""
    C = finset_category(c_max)
    tmap_full, eta_full, ext_full = exception_monad_tables(C, a_max)
    aobjs = tuple(str(k) for k in range(a_max + 1))
    jmap = {a: a for a in aobjs}
    d = restrict_monad("exception-restriction", C, tmap_full, eta_full,
                       ext_full, aobjs, jmap)
    _add_exception_strength(d)
    return d


def _add_exception_strength(d: FinRelMonadData):
    """Canonical strength of a finite-set relative monad:
    f+(g, u) = (f(g, -))*(u), here with explicit error propagation."""
    C = d.C
    d.ext_strong = {}
    for gamma in C.objects:
        gn = int(gamma)
        for a in d.aobjs:
            for b in d.aobjs:
                ja, tb = d.jmap[a], d.tmap[b]
                gja = C.tensor_obj(gamma, ja)
                gta = C.tensor_obj(gamma, d.tmap[a])
                if gja is None or gta is None:
                    continue
                an, tbn = int(ja), int(tb)
                tan = int(d.tmap[a])
                for f in C.hom(gja, tb):
                    _, _, ftab = finset_table(f)
                    images = []
                    for i in range(gn * tan):
                        g, u = divmod(i, tan)
                        if u == tan - 1:  # the error point of TA
                            images.append(tbn - 1)
                        else:
                            images.append(ftab[g * an + u])
                    d.ext_strong[(gamma, a, b, f)] = finset_mor(
                        gn * tan, tbn, images)
    # the J-indexed fragment and J's monoidal witnesses
    d.ext_j = {(g, a, b, f): v for (g, a, b, f), v in d.ext_strong.items()
               if g in d.aobjs}
    kappa = {}
    for a in d.aobjs:
        for b in d.aobjs:
            t = C.tensor_obj(a, b)
            if t is not None and t in d.aobjs:
                kappa[(a, b)] = C.ids[t]
    d.jfun = FinFunctor(None, C, dict(d.jmap), {}, kappa=kappa,
                        iota=C.ids["1"])


def identity_monad_instance(c_max: int = 2) -> FinRelMonadData:
    """T = J = id on the finite-set skeleton: the trivial relative monad."""
    C = finset_category(c_max)
    aobjs = C.objects
    d = FinRelMonadData(
        "identity", C, aobjs, {a: a for a in aobjs}, {a: a for a in aobjs},
        {a: C.ids[a] for a in aobjs},
        ext_plain={(a, b, f): f for a in aobjs for b in aobjs
                   for f in C.hom(a, b)})
    d.ext_strong = {}
    for gamma in C.objects:
        for a in aobjs:
            for b in aobjs:
                gja = C.tensor_obj(gamma, a)
                if gja is None:
                    continue
                for f in C.hom(gja, b):
                    d.ext_strong[(gamma, a, b, f)] = f
    d.ext_j = {k: v for k, v in d.ext_strong.items() if k[0] in aobjs}
    d.jfun = identity_functor(C)
    return d


# ---------------------------------------------------------------------------
# the quantifier engine
#
# Every law is data: its quantifier domains in enumeration order, the
# guards that cut out-of-fragment instances, the values computed once for
# the instances below them, and a predicate on the bound values.  One
# engine enumerates every law set, so they all share one order, one stop
# rule, one skip counter and one witness construction.

@dataclass(frozen=True)
class Guard:
    """A side condition on the values bound so far.  When it fails, the
    instances below it are out of the fragment: they count as one skip
    and are not enumerated."""

    test: Callable


@dataclass(frozen=True)
class Let:
    """A value computed once from the values bound so far, for every
    instance below it: the steps below take it as one more bound value,
    but it is not part of the witness.  None puts the instances below out
    of the fragment, as a failing Guard does."""

    value: Callable


@dataclass(frozen=True)
class Law:
    """One law as data.

    domains lists the quantifiers outermost first; each is a sequence, or
    a function of the values bound before it that returns one.  Guards and
    Lets may sit between them; the innermost step is a quantifier.  pred
    takes every bound value and returns True when the instance holds, None
    when it is out of the fragment (one skip), otherwise False or a tuple
    of evidence.  The witness is (tag, *quantified values, *evidence)."""

    name: str
    tag: str
    domains: tuple
    pred: Callable


def _forall(law: Law):
    """Enumerate law's instances in the order of its domains and stop at
    the first failing one: (witness or None, skips counted on the way).
    A Let's value is computed once per instance of the steps above it, and
    left out of the witness."""
    skipped = 0

    def values(dom):
        return dom if callable(dom) else lambda *env: dom

    def innermost(dom, pred):
        def run(env):
            nonlocal skipped
            for v in dom(*env):
                r = pred(*env, v)
                if r is None:
                    skipped += 1
                elif r is not True:
                    return env + (v,) + (() if r is False else r)
        return run

    def guard(test, inner):
        def run(env):
            nonlocal skipped
            if test(*env):
                return inner(env)
            skipped += 1
        return run

    def let(value, inner):
        def run(env):
            nonlocal skipped
            v = value(*env)
            if v is not None:
                return inner(env + (v,))
            skipped += 1
        return run

    def quantify(dom, inner):
        def run(env):
            for v in dom(*env):
                w = inner(env + (v,))
                if w is not None:
                    return w
        return run

    # one closure per step, built from the innermost quantifier outwards
    *outer, last = law.domains
    run = innermost(values(last), law.pred)
    for step in reversed(outer):
        run = guard(step.test, run) if isinstance(step, Guard) else \
            let(step.value, run) if isinstance(step, Let) else \
            quantify(values(step), run)
    w = run(())
    if w is None:
        return None, skipped
    # the positions of the Lets' values among the bound ones
    bound = [s for s in law.domains if not isinstance(s, Guard)]
    hidden = {i for i, s in enumerate(bound) if isinstance(s, Let)}
    return (law.tag, *(v for i, v in enumerate(w) if i not in hidden)), \
        skipped


def _report(name, laws, stop_early=False) -> LawReport:
    """Check laws in order; stop_early stops after the first failing one."""
    rep = LawReport(name)
    for law in laws:
        rep.add(law.name, *_forall(law))
        if stop_early and not rep.ok:
            break
    return rep


def _trie(table: dict) -> dict:
    """Nest a table's tuple keys into dicts, one level per component, in
    the table's order; the last level maps to the table's values."""
    root = {}
    for key, val in table.items():
        node = root
        for k in key[:-1]:
            node = node.setdefault(k, {})
        node[key[-1]] = val
    return root


# ---------------------------------------------------------------------------
# law sets

def relmonad_laws(d: FinRelMonadData) -> list[Law]:
    """(eta)* = id, f* o eta = f, g* o f* = (g* o f)* over all tables."""
    C, A, ext, eta = d.C, d.aobjs, d.ext_plain, d.eta
    if ext is None:
        raise LawError("plain extension tables absent")

    def kleisli(a, b):
        return C.hom(d.jmap[a], d.tmap[b])

    def unit_ext(a):
        got = ext.get((a, a, eta[a]))
        return got == C.ids[d.tmap[a]] or (eta[a], got)

    def ext_comp(a, b, c, f, g):
        gstar = ext[(b, c, g)]
        return C.compose(gstar, ext[(a, b, f)]) == \
            ext[(a, c, C.compose(gstar, f))]

    return [
        Law("unit-extension", "eta-ext", (A,), unit_ext),
        Law("extension-unit", "ext-unit", (A, A, kleisli),
            lambda a, b, f: C.compose(ext[(a, b, f)], eta[a]) == f),
        Law("extension-composition", "ext-comp",
            (A, A, A, lambda a, b, c: kleisli(a, b),
             lambda a, b, c, f: kleisli(b, c)), ext_comp),
    ]


def check_rel_monad_laws(d: FinRelMonadData) -> LawReport:
    return _report(f"{d.name}/relmonad", relmonad_laws(d))


def check_monad_morphism(gamma: dict, d1: FinRelMonadData,
                         d2: FinRelMonadData) -> LawReport:
    """gamma_A : T1 A -> T2 A a morphism of relative monads."""
    C, A = d1.C, d1.aobjs

    def extension(a, b, f):
        return C.compose(gamma[b], d1.ext_plain[(a, b, f)]) == C.compose(
            d2.ext_plain[(a, b, C.compose(gamma[b], f))], gamma[a])

    return _report("monad-morphism", [
        Law("morphism-unit", "unit", (A,),
            lambda a: C.compose(gamma[a], d1.eta[a]) == d2.eta[a]),
        Law("morphism-extension", "extension",
            (A, A, lambda a, b: C.hom(d1.jmap[a], d1.tmap[b])), extension),
    ])


def _tensor_id_mor(C, obj, f):
    return C.tensor_mor(C.ids[obj], f)


def _tensor_mor_id(C, f, obj):
    return C.tensor_mor(f, C.ids[obj])


def strong_laws(d: FinRelMonadData, table: str = "ext_strong",
                indices=None, wfun: FinFunctor | None = None) -> list[Law]:
    """The three strong-extension equations plus naturality in the context.

    table/indices select the table family: the full strong tables (indices
    = all C-objects), the J-indexed fragment, or W-indexed tables with the
    strong monoidal witnesses of W.
    """
    C, A, J, T, eta = d.C, d.aobjs, d.jmap, d.tmap, d.eta
    ext = getattr(d, table)
    if ext is None:
        raise LawError(f"{table} tables absent")
    if indices is None:
        indices = C.objects
    w_omap = (wfun.omap if wfun else None)

    def wobj(g):
        return w_omap[g] if w_omap else g

    # W(Gamma) (x) JA and W(Gamma) (x) TA
    tj = {(g, a): C.tensor_obj(wobj(g), J[a]) for g in indices for a in A}
    tt = {(g, a): C.tensor_obj(wobj(g), T[a]) for g in indices for a in A}
    unit_idx = next((g for g in indices if wobj(g) == C.unit), None)
    # W(Delta) (x) W(Gamma) and the index of its tables: for W-tables the
    # index space is W's source, so the tensor must exist there too
    dg = {(g, e): C.tensor_obj(wobj(e), wobj(g))
          for g in indices for e in indices}
    comp_idx = {k: next((m for m in indices if wobj(m) == v), None)
                if w_omap else v for k, v in dg.items()}
    # naturality is quantified over the morphisms h : Gamma' -> Gamma of
    # the index category, taken to C through W
    if w_omap and wfun.source is not None:
        def nat_mors(gp, g):
            return [wfun.mmap[m] for m in wfun.source.hom(gp, g)]
    elif w_omap:
        def nat_mors(gp, g):
            return ()
    else:
        nat_mors = C.hom

    def unit(a):
        if unit_idx is None:
            return None
        got = ext.get((unit_idx, a, a, eta[a]))
        return got == C.ids[T[a]] or (got,)

    def ext_unit(g, a, b, f):
        fstar = ext.get((g, a, b, f))
        if fstar is None:
            return None
        return C.compose(fstar, _tensor_id_mor(C, wobj(g), eta[a])) == f

    def assoc_defined(g, e, a, b, c):
        return None not in (tj[g, a], tt[g, a], C.tensor_obj(dg[g, e], J[a]),
                            C.tensor_obj(dg[g, e], T[a]), tj[e, b])

    def assoc_mids(g, e, a, b, c, f):
        # W(Delta) (x) f* and W(Delta) (x) f, which every h shares; either
        # may be undefined, which puts each h out of the fragment
        if (g, a, b, f) not in ext:
            return None
        return (_tensor_id_mor(C, wobj(e), ext[(g, a, b, f)]),
                _tensor_id_mor(C, wobj(e), f))

    def assoc(g, e, a, b, c, f, mids, h):
        gstar = ext.get((e, b, c, h))
        mid_t, mid_j = mids
        if gstar is None or mid_t is None or mid_j is None:
            return None
        rhs = ext.get((comp_idx[g, e], a, c, C.compose(gstar, mid_j)))
        return None if rhs is None else C.compose(gstar, mid_t) == rhs

    def nat_lifts(gp, g, h, a, b):
        # h (x) JA and h (x) TA, or None where a tensor is undefined
        hj, ht = _tensor_mor_id(C, h, J[a]), _tensor_mor_id(C, h, T[a])
        if None in (tj[g, a], tj[gp, a], tt[gp, a], tt[g, a], hj, ht):
            return None
        return hj, ht

    def naturality(gp, g, h, a, b, lifts, f):
        hj, ht = lifts
        fstar = ext.get((g, a, b, f))
        lhs = ext.get((gp, a, b, C.compose(f, hj)))
        if fstar is None or lhs is None:
            return None
        return lhs == C.compose(fstar, ht)

    return [
        Law("strong-unit", "strong-unit", (A,), unit),
        Law("strong-extension-unit", "strong-ext-unit",
            (indices, A, A,
             Guard(lambda g, a, b: tj[g, a] is not None and
                   tt[g, a] is not None),
             lambda g, a, b: C.hom(tj[g, a], T[b])), ext_unit),
        Law("strong-associativity", "strong-assoc",
            (indices, indices,
             Guard(lambda g, e: comp_idx[g, e] is not None),
             A, A, A, Guard(assoc_defined),
             lambda g, e, a, b, c: C.hom(tj[g, a], T[b]), Let(assoc_mids),
             lambda g, e, a, b, c, f, mids: C.hom(tj[e, b], T[c])), assoc),
        Law("strong-naturality", "strong-naturality",
            (indices, indices, nat_mors, A, A, Let(nat_lifts),
             lambda gp, g, h, a, b, lifts: C.hom(tj[g, a], T[b])),
            naturality),
    ]


def check_strong_laws(d: FinRelMonadData, table: str = "ext_strong",
                      indices=None, wfun: FinFunctor | None = None
                      ) -> LawReport:
    return _report(f"{d.name}/{table}", strong_laws(d, table, indices, wfun))


def check_w_strong_laws(d: FinRelMonadData, wfun: FinFunctor) -> LawReport:
    indices = tuple(wfun.source.objects) if wfun.source is not None \
        else tuple(wfun.omap)
    return check_strong_laws(d, table="ext_w", indices=indices, wfun=wfun)


def check_j_strong_laws(d: FinRelMonadData) -> LawReport:
    return check_strong_laws(d, table="ext_j", indices=d.aobjs)


# -- strength maps and the conversion formulas -------------------------------

def _kappa_inv(C: FinCategory, kappa_mor):
    """Invert an iso by table search."""
    a, b = C.dom[kappa_mor], C.cod[kappa_mor]
    for m in C.hom(b, a):
        if C.compose(m, kappa_mor) == C.ids[a] and \
                C.compose(kappa_mor, m) == C.ids[b]:
            return m
    raise LawError(f"{kappa_mor} is not invertible")


def strength_from_extension(d: FinRelMonadData):
    """theta_{A,B} = (eta_{AxB} o kappa_{A,B})* with the J-indexed tables.

    Returns (theta tables, skipped index pairs)."""
    if d.ext_j is None or d.jfun is None:
        raise LawError("J-indexed tables or J witnesses absent")
    C = d.C
    theta, skipped = {}, []
    for a in d.aobjs:
        for b in d.aobjs:
            kap = d.jfun.kappa.get((a, b))
            ab = C.tensor_obj(a, b)
            if kap is None or ab not in d.aobjs:
                skipped.append((a, b))
                continue
            f = C.compose(d.eta[ab], kap)
            if (a, b, ab, f) not in d.ext_j:
                skipped.append((a, b))  # the T-side tensor left the fragment
                continue
            theta[(a, b)] = d.ext_j[(a, b, ab, f)]
    return theta, skipped


def extension_from_strength(theta: dict, d: FinRelMonadData):
    """f+ = (f o kappa^-1)* o theta_{A,B}: rebuild the J-indexed tables from
    strength maps and the plain extension."""
    if d.ext_plain is None or d.jfun is None:
        raise LawError("plain tables or J witnesses absent")
    C = d.C
    ext_j, skipped = {}, []
    for a in d.aobjs:
        for b in d.aobjs:
            kap = d.jfun.kappa.get((a, b))
            ab = C.tensor_obj(a, b)
            if kap is None or ab not in d.aobjs or (a, b) not in theta:
                skipped.append((a, b))
                continue
            kinv = _kappa_inv(C, kap)
            for c in d.aobjs:
                for f in C.hom(C.tensor_obj(d.jmap[a], d.jmap[b]),
                               d.tmap[c]):
                    plain = d.ext_plain[(ab, c, C.compose(f, kinv))]
                    ext_j[(a, b, c, f)] = C.compose(plain, theta[(a, b)])
    return ext_j, skipped


def strength_map_laws(theta: dict, d: FinRelMonadData) -> list[Law]:
    """The four strength-map diagrams: unitor, eta compatibility, the
    associativity pentagon (strict associators) and extension
    compatibility."""
    C, A, J, T, eta = d.C, d.aobjs, d.jmap, d.tmap, d.eta
    if d.jfun is None:
        raise LawError("J witnesses absent")
    iota, kappa = d.jfun.iota, d.jfun.kappa
    unit_a = next((a for a in reversed(A) if J[a] == C.unit), None)

    def unitor(b):
        # T(lambda) o theta_{I,B} o (iota (x) TB) = lambda, strict unitors
        if unit_a is None or (unit_a, b) not in theta:
            return None
        lhs = C.compose(theta[(unit_a, b)], _tensor_mor_id(C, iota, T[b]))
        return lhs == C.ids[T[b]] or (lhs,)

    def eta_compat(a, b):
        # theta o (JA (x) eta_B) = eta_{AxB} o kappa
        if (a, b) not in theta:
            return None
        return C.compose(theta[(a, b)], _tensor_id_mor(C, J[a], eta[b])) \
            == C.compose(eta[C.tensor_obj(a, b)], kappa[(a, b)])

    def assoc(a, b, c):
        ab, bc = C.tensor_obj(a, b), C.tensor_obj(b, c)
        if ab not in A or bc not in A or (ab, c) not in theta or \
                (a, bc) not in theta or (b, c) not in theta or \
                C.tensor_obj(J[a], J[b]) is None:
            return None
        lhs = C.compose(theta[(ab, c)],
                        _tensor_mor_id(C, kappa[(a, b)], T[c]))
        return lhs == C.compose(theta[(a, bc)],
                                _tensor_id_mor(C, J[a], theta[(b, c)]))

    @functools.cache
    def kappa_inv(a, b):
        return _kappa_inv(C, kappa[(a, b)])

    def extension(a, b, c, f):
        lhs = C.compose(theta[(a, c)],
                        _tensor_id_mor(C, J[a], d.ext_plain[(b, c, f)]))
        inner = C.compose(theta[(a, c)], C.compose(
            _tensor_id_mor(C, J[a], f), kappa_inv(a, b)))
        return lhs == C.compose(
            d.ext_plain[(C.tensor_obj(a, b), C.tensor_obj(a, c), inner)],
            theta[(a, b)])

    return [
        Law("strength-unitor", "theta-unitor", (A,), unitor),
        Law("strength-eta", "theta-eta", (A, A), eta_compat),
        Law("strength-associativity", "theta-assoc", (A, A, A), assoc),
        Law("strength-extension", "theta-ext",
            (A, A, A, Guard(lambda a, b, c: (a, b) in theta and
                            (a, c) in theta),
             lambda a, b, c: C.hom(J[b], T[c])), extension),
    ]


def check_strength_map_laws(theta: dict, d: FinRelMonadData) -> LawReport:
    return _report(f"{d.name}/strength-maps", strength_map_laws(theta, d))


# -- bistrong ----------------------------------------------------------------
#
# With the lexicographic tensor on the finite-set skeleton, all the
# reassociations in the two-sided laws are identity permutations, so the
# checks compose only the genuinely non-trivial block permutations.

def _perm_mor(size, perm):
    return finset_mor(size, size, perm)


def _swap_blocks(g_n, x_n, d_n):
    """Gamma x (X x Delta) -> Gamma x (Delta x X) as a function table on the
    lex encodings (this is Gamma (x) sigma_{X,Delta})."""
    out = []
    for i in range(g_n * x_n * d_n):
        g_i, xd = divmod(i, x_n * d_n)
        x_i, d_i = divmod(xd, d_n)
        out.append(g_i * (d_n * x_n) + d_i * x_n + x_i)
    return out


def bistrong_from_strong(d: FinRelMonadData) -> dict:
    """Induce (Gamma, Delta)-indexed tables from the strong ones through the
    symmetry: shuffle Delta past the monadic slot, extend at context
    Gamma (x) Delta, and shuffle back."""
    C = d.C
    out = {}
    for gamma in C.objects:
        for delta in C.objects:
            gd = C.tensor_obj(gamma, delta)
            if gd is None:
                continue
            g_n, d_n = int(gamma), int(delta)
            for a in d.aobjs:
                for b in d.aobjs:
                    a_n, t_n = int(d.jmap[a]), int(d.tmap[a])
                    src_j = g_n * a_n * d_n
                    src_t = g_n * t_n * d_n
                    if str(src_j) not in C.objects or \
                            str(src_t) not in C.objects:
                        continue
                    # p : Gamma x (Delta x JA) -> Gamma x (JA x Delta)
                    p = _swap_blocks(g_n, d_n, a_n)
                    # q : Gamma x (TA x Delta) -> Gamma x (Delta x TA)
                    q = _swap_blocks(g_n, t_n, d_n)
                    for f in C.hom(str(src_j), d.tmap[b]):
                        fp = C.compose(f, _perm_mor(src_j, p))
                        fstar = d.ext_strong[(gd, a, b, fp)]
                        out[(gamma, delta, a, b, f)] = C.compose(
                            fstar, _perm_mor(src_t, q))
    return out


def _sym_perm(g_n, x_n, d_n, p_n):
    """sigma~ : Gamma x (X x (Delta x Gamma')) -> (Gamma x Delta) x
    (X x Gamma') as a function table on the lex encodings."""
    out = []
    for i in range(g_n * x_n * d_n * p_n):
        g_i, rest = divmod(i, x_n * d_n * p_n)
        x_i, rest2 = divmod(rest, d_n * p_n)
        d_i, p_i = divmod(rest2, p_n)
        out.append(((g_i * d_n + d_i) * x_n + x_i) * p_n + p_i)
    return out


def bistrong_laws(d: FinRelMonadData) -> list[Law]:
    """The two-sided extension laws and, when the symmetry is present, the
    symmetric-bistrength condition.  Table cells are quantified through
    the components of their keys, in the table's order."""
    C, U, ext = d.C, d.C.unit, d.ext_bi
    if ext is None:
        raise LawError("bistrong tables absent")
    t = _trie(ext)

    def keys(*prefix):
        node = t
        for k in prefix:
            node = node[k]
        return node

    def unit(a):
        got = ext.get((U, U, a, a, d.eta[a]))
        if got is None:
            return None
        return got == C.ids[d.tmap[a]] or (got,)

    def lift(g, e, m):
        # Gamma (x) (m (x) Delta), None where the tensor is undefined
        mid = C.tensor_mor(m, C.ids[e])
        return None if mid is None else _tensor_id_mor(C, g, mid)

    def ext_unit(g, e, a, b, f):
        ge = lift(g, e, d.eta[a])
        if ge is None:
            return None
        return C.compose(ext[(g, e, a, b, f)], ge) == f

    def assoc_lifts(g1, d1, a, b, f, g2, d2):
        # the two cells' contexts tensored, and f* and f lifted to them,
        # which every (c, g) shares; None where undefined
        og, od = C.tensor_obj(g2, g1), C.tensor_obj(d1, d2)
        if og is None or od is None:
            return og, od, None, None
        return og, od, lift(g2, d2, ext[(g1, d1, a, b, f)]), lift(g2, d2, f)

    def assoc(g1, d1, a, b, f, g2, d2, lifts, c, g):
        og, od, m2, m2j = lifts
        if None in lifts:
            return None
        gstar = ext[(g2, d2, b, c, g)]
        rhs = ext.get((og, od, a, c, C.compose(gstar, m2j)))
        return None if rhs is None else C.compose(gstar, m2) == rhs

    def shuffle(g, e, p, x):
        # sigma~ at the object x, None if its domain leaves the category
        n = int(g) * int(x) * int(e) * int(p)
        if str(n) not in C.objects:
            return None
        return _perm_mor(n, _sym_perm(int(g), int(x), int(e), int(p)))

    def symmetric(g, e, p, a, b, f):
        # the (Gamma x Delta, Gamma') cell against (Gamma, Delta x Gamma')
        dgp = C.tensor_obj(e, p)
        sj, st = shuffle(g, e, p, d.jmap[a]), shuffle(g, e, p, d.tmap[a])
        if dgp is None or sj is None or st is None:
            return None
        rhs = ext.get((g, dgp, a, b, C.compose(f, sj)))
        return None if rhs is None else \
            C.compose(ext[(C.tensor_obj(g, e), p, a, b, f)], st) == rhs

    def at_gd(g, e, *rest):
        return keys(C.tensor_obj(g, e), *rest)

    return [
        Law("bistrong-unit", "bi-unit", (d.aobjs,), unit),
        Law("bistrong-extension-unit", "bi-ext-unit", (keys,) * 5, ext_unit),
        # pairs of cells (Gamma1, Delta1, A, B, f), (Gamma2, Delta2, B, C, g)
        Law("bistrong-associativity", "bi-assoc",
            (keys, keys, keys, keys, keys, t,
             lambda g1, d1, a, b, f, g2: [d2 for d2 in t[g2]
                                          if b in t[g2][d2]],
             Let(assoc_lifts),
             lambda g1, d1, a, b, f, g2, d2, lifts: t[g2][d2][b],
             lambda g1, d1, a, b, f, g2, d2, lifts, c: t[g2][d2][b][c]),
            assoc),
        Law("bistrong-symmetric", "bi-symmetric",
            (C.objects if C.sigma else (),
             lambda g: [e for e in C.objects if C.tensor_obj(g, e) in t],
             at_gd, at_gd, at_gd, at_gd), symmetric),
    ]


def check_bistrong_laws(d: FinRelMonadData) -> LawReport:
    return _report(f"{d.name}/bistrong", bistrong_laws(d))


# ---------------------------------------------------------------------------
# mutation sweeps

def mutations_of(d: FinRelMonadData, tables=("eta", "ext_plain",
                                             "ext_strong")):
    """Yield (description, mutated copy): every single table cell replaced
    by each minimally different legal value (the next morphism in its
    hom-set)."""
    C = d.C
    for tname in tables:
        table = getattr(d, tname)
        if table is None:
            continue
        for key, mor in table.items():
            homset = C.hom(C.dom[mor], C.cod[mor])
            if len(homset) < 2:
                continue
            alt = homset[(homset.index(mor) + 1) % len(homset)]
            mut = d.copy()
            getattr(mut, tname)[key] = alt
            if tname == "ext_strong" and mut.ext_j is not None \
                    and key in mut.ext_j:
                mut.ext_j[key] = alt
            yield (f"{tname}[{key}] := {alt}", mut)


# ---------------------------------------------------------------------------
# graded monads over a finite grading fragment
#
# The graded checks live over implicit finite sets (declared carriers with
# computed function spaces) rather than an explicit FinCategory: the
# quantification domains are astronomically larger than the 64-morphism cap
# allows, so the heavy sweeps are vectorized.  Values are integer-coded, the
# extension operator of a combination of grades and carriers is tabulated
# for all its maps at once, and the overrides are matched once per table.
# One check builds each such table once, in a store (_Tables) that its laws
# share and that goes with them, so its memory is the distinct tables of
# that check.  The laws quantified over two function spaces report their
# first failing instance in the order of the loops outer row, then cell,
# then inner row.  Associativity (over f and g) is decided cell by cell,
# once per class of the f that agree on all the cell's two sides read of
# f; context naturality (over u and f) in blocks of whole arrays of at
# most GRADED_BLOCK_ELEMENTS elements, whose first failing instance is
# found in that order, so the witnesses do not depend on the block size.

import numpy as _np

# int32 elements per block of context naturality's (u, f) pairs and of the
# rows in which an extension table is built.  It bounds those transient
# arrays; the tables themselves stay until the check ends.
GRADED_BLOCK_ELEMENTS = 1 << 16


@dataclass
class GradedMonadData:
    """The bounded-list graded monad on declared carriers, graded by the
    multiplicative monoid (m (x) n = m * n, unit grade 1), with mutable unit
    and regrade tables and a cell-override map for the extension operator.
    """

    name: str
    grades: tuple                    # the finite fragment, ascending
    carriers: dict                   # name -> tuple of element labels
    eta: dict = field(default_factory=dict)      # (X, elem) -> list value
    tx: dict = field(default_factory=dict)       # (m, n, X, val) -> val
    ext_overrides: dict = field(default_factory=dict)
    _vals: dict = field(default_factory=dict)

    def __post_init__(self):
        # eta's values live at the unit grade, in the fragment or not
        cap = max(self.grades + (1,))
        for X, elems in self.carriers.items():
            for m in range(cap + 1):
                self._vals.setdefault((m, X), self._lists(elems, m))
            for e in elems:
                self.eta.setdefault((X, e), (e,))
            for m in self.grades:
                for n in self.grades:
                    if m >= n:
                        for v in self._vals[(n, X)]:
                            self.tx.setdefault((m, n, X, v), v)

    @staticmethod
    def _lists(elems, m):
        out = []
        for k in range(m + 1):
            out.extend(itertools.product(elems, repeat=k))
        return out

    def copy(self):
        import copy
        return copy.deepcopy(self)

    @staticmethod
    def tensor(m, n):
        return m * n

    unit_grade = 1

    def tvals(self, m, X):
        return self._vals[(m, X)]

    def overrides(self) -> dict:
        """The extension overrides by (G, m, n, X, Y): lists of (table of f
        as a dict, cell, value), in the order of ext_overrides.  A key lists
        f's table as (element, value) pairs in any order; this is the one
        place that reads it, for ext_value and the kernels alike.  A table
        with an entry outside f's domain G x X raises LawError."""
        index = {}
        for (key, cell), val in self.ext_overrides.items():
            G, X, ftab = key[0], key[3], dict(key[5])
            domain = set(itertools.product(self.carriers.get(G, ()),
                                           self.carriers.get(X, ())))
            outside = [e for e in ftab if e not in domain]
            if outside:
                raise LawError(f"extension override {key[:5]}: table entry"
                               f" {outside[0]!r} is outside {G} x {X}")
            index.setdefault(key[:5], []).append((ftab, cell, val))
        return index

    def ext_value(self, G, m, n, X, Y, f: dict, cell):
        """f : G x X -> T_n Y as a dict; one output cell of f*_{m,n}.  Of
        two overrides of one table and cell, the later one wins."""
        for ftab, c, val in reversed(self.overrides().get((G, m, n, X, Y),
                                                          ())):
            if c == cell and ftab == f:
                return val
        g, xs = cell
        out = []
        for x in xs:
            out.extend(f[(g, x)])
        return tuple(out)


def bounded_list_instance(carriers=None, grades=(1, 2, 3)) -> GradedMonadData:
    if carriers is None:
        carriers = {"U": ("u",), "B": ("b0", "b1")}
    return GradedMonadData("bounded-list", tuple(sorted(grades)),
                           dict(carriers))


class _GradedCodec:
    """Integer coding of one combo's value spaces plus the vectorized
    extension operator."""

    def __init__(self, gd: GradedMonadData, X, cap):
        self.gd = gd
        self.X = X
        self.vals = gd.tvals(cap, X)
        self.code = {v: i for i, v in enumerate(self.vals)}
        n = len(self.vals)
        # cat[a, b] codes a ++ b, or is -1 where that leaves the value
        # space; its extra last row, all -1, is the one a = -1 reads
        cat = _np.full((n + 1, n), -1, dtype=_np.int32)
        for i, a in enumerate(self.vals):
            for j, b in enumerate(self.vals):
                c = a + b
                if c in self.code:
                    cat[i, j] = self.code[c]
        self._flat = cat.ravel()
        self.empty = self.code[()]

    def join(self, a, b):
        """Codes of a ++ b, elementwise, for codes a (or -1, a list outside
        the value space) and b: -1 where the list leaves the value space,
        and wherever a is -1, also when b is the empty list."""
        # a = -1 indexes from the end of the flat table: its last row
        return self._flat[a * len(self.vals) + b]


def _all_maps_array(dom_size, n_codes):
    """All functions dom -> codes as an int array (N, dom_size)."""
    total = n_codes ** dom_size
    if total > 600000:
        raise LawError(f"graded sweep too large: {n_codes}^{dom_size}")
    ar = _np.arange(total, dtype=_np.int32)
    out = _np.empty((total, dom_size), dtype=_np.int32)
    for i in range(dom_size):
        out[:, i] = (ar // (n_codes ** (dom_size - 1 - i))) % n_codes
    return out


def _coded_overrides(overrides, fkeys, codec, cell_index) -> list:
    """The overrides that can apply to maps on the domain fkeys (in column
    order) coded in codec's space: (coded table, cell column, value code)
    each."""
    out = []
    for ftab, cell, val in overrides:
        try:
            coded = _np.array([codec.code[ftab[k]] for k in fkeys],
                              dtype=_np.int32)
        except KeyError:
            continue
        if cell in cell_index and val in codec.code:
            out.append((coded, cell_index[cell], codec.code[val]))
    return out


def _concat_plan(cells, key_index) -> list:
    """How to fill the cells (g, xs) by concatenation: per list length k >=
    1, the cells of that length, their prefixes (g, xs[:-1]), which are
    cells of length k - 1, and the key (g, xs[-1]) of their last part."""
    cell_index = {c: i for i, c in enumerate(cells)}
    levels = {}
    for ci, (g, xs) in enumerate(cells):
        if xs:
            levels.setdefault(len(xs), []).append(
                (ci, cell_index[(g, xs[:-1])], key_index[(g, xs[-1])]))
    return [tuple(_np.array(a, dtype=_np.intp) for a in zip(*level))
            for _, level in sorted(levels.items())]


def _concat(plan, codec, parts, ncells):
    """out[:, c] = the concatenation of parts[:, key] over the keys of cell
    c, by one cat gather per list length; the cells axis is axis 1."""
    out = _np.full((parts.shape[0], ncells), codec.empty, dtype=_np.int32)
    for idx, pre, key in plan:
        out[:, idx] = codec.join(out[:, pre], parts[:, key])
    return out


class _ExtVec:
    """Vectorized f*_{m,n} for every row of fmat at once: one column per
    cell (g, xs), with the overrides of its (G, m, n, X, Y) applied by
    matching rows against each override's coded table."""

    def __init__(self, gd, overrides, G, m, X, fmat, dom_index, codec_y,
                 codec_x):
        # fmat: (Nf, |G x X|) codes of T_n Y values (in codec_y space),
        # its columns in the order of dom_index
        self.gs = gd.carriers[G]
        self.codec_x = codec_x
        self.cells = [(g, xs) for g in self.gs for xs in gd.tvals(m, X)]
        self.cell_index = {c: i for i, c in enumerate(self.cells)}
        plan, width = _concat_plan(self.cells, dom_index), len(self.cells)
        self.mat = _np.empty((fmat.shape[0], width), dtype=_np.int32)
        # in row blocks, which bound _concat's temporaries
        rows = max(1, GRADED_BLOCK_ELEMENTS // max(1, width))
        for r in range(0, fmat.shape[0], rows):
            self.mat[r:r + rows] = _concat(plan, codec_y, fmat[r:r + rows],
                                           width)
        fkeys = sorted(dom_index, key=dom_index.get)
        for coded, ci, v in _coded_overrides(overrides, fkeys, codec_y,
                                             self.cell_index):
            self.mat[(fmat == coded).all(axis=1), ci] = v

    def col(self, cell):
        return self.mat[:, self.cell_index[cell]]

    @functools.cached_property
    def colmap(self):
        """(position of g in G, code of v in X's space) -> the column of
        the cell (g, v), or the number of cells where v is no cell's."""
        gpos = {g: i for i, g in enumerate(self.gs)}
        cm = _np.full((len(gpos), len(self.codec_x.vals)), len(self.cells),
                      dtype=_np.int32)
        for (g, v), ci in self.cell_index.items():
            cm[gpos[g], self.codec_x.code[v]] = ci
        return cm


def _fmat_for(gd, G, X, n, codec_y):
    """All maps G x X -> T_n Y coded in codec_y's space, plus the domain
    index."""
    gelems = gd.carriers[G]
    xelems = gd.carriers[X]
    dom = [(g, x) for g in gelems for x in xelems]
    dom_index = {k: i for i, k in enumerate(dom)}
    level_vals = gd.tvals(n, codec_y.X)
    level_codes = _np.array([codec_y.code[v] for v in level_vals],
                            dtype=_np.int32)
    raw = _all_maps_array(len(dom), len(level_vals))
    return level_codes[raw], dom_index


class _Tables:
    """The coded function spaces and extension tables of one graded check.

    Each is built on its first use and kept until the check ends, so the
    combos of every law that read one table share it.  An extension table
    is keyed by what fixes its contents: (G, m, n, X, Y), whether that
    key's overrides are applied, and the regrade its maps are recoded
    through."""

    def __init__(self, gd: GradedMonadData):
        self.gd = gd
        self.codecs = {X: _GradedCodec(gd, X, max(gd.grades))
                       for X in sorted(gd.carriers)}
        self.ovr = gd.overrides()
        self._built = {}

    def _once(self, key, build):
        """The value stored under key, built by build() on first use."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def fmat(self, G, X, n, Y):
        """Every map G x X -> T_n Y coded in Y's space, and the index of
        the domain's columns."""
        return self._once(("fmat", G, X, n, Y), lambda: _fmat_for(
            self.gd, G, X, n, self.codecs[Y]))

    def ext(self, G, m, n, X, Y):
        """f*_{m,n} of every f : G x X -> T_n Y, with the overrides."""
        return self._ext((G, m, n, X, Y), True, None)

    def plain(self, G, m, n, X, Y):
        """f*_{m,n} of every f : G x X -> T_n Y, without the overrides."""
        return self._ext((G, m, n, X, Y), False, None)

    def regraded(self, G, m, n, n2, X, Y):
        """(T_xi o f)*_{m,n} of every f : G x X -> T_n2 Y, xi : n >= n2,
        with the overrides of (G, m, n, X, Y): its rows are the f.  The
        identity regrade gives the table ext gives."""
        lut = self.regrade_lut(n, n2, Y)
        if n == n2 and (lut == _np.arange(len(lut))).all():
            return self.ext(G, m, n, X, Y)
        return self._ext((G, m, n, X, Y), True, n2)

    def _ext(self, gkey, applied, regrade):
        G, m, n, X, Y = gkey
        over = self.ovr.get(gkey, ()) if applied else ()

        def build():
            if regrade is None:
                fmat, dom = self.fmat(G, X, n, Y)
            else:
                fmat, dom = self.fmat(G, X, regrade, Y)
                fmat = self.regrade_lut(n, regrade, Y)[fmat]
            return _ExtVec(self.gd, over, G, m, X, fmat, dom, self.codecs[Y],
                           self.codecs[X])
        return self._once(("ext", gkey, bool(over), regrade), build)

    def regrade_lut(self, hi, lo, Y):
        """The code of each value of T_lo Y -> the code of its regrade into
        T_hi Y (other codes map to themselves)."""
        cy = self.codecs[Y]
        lut = _np.arange(len(cy.vals), dtype=_np.int32)
        for v in self.gd.tvals(lo, Y):
            lut[cy.code[v]] = cy.code[self.gd.tx[(hi, lo, Y, v)]]
        return lut


def _first_diff(lhs, rhs) -> int:
    return int(_np.nonzero(lhs != rhs)[0][0])


def _block_gather(table, cols, outer, inner, outer_picks):
    """out[o, c, i] = mat[row, cols[pick, c]] over one block, laid out
    (outer, cell, inner).  Either the outer rows run over cols' rows and the
    inner ones over mat's, and table is mat transposed, contiguous, or the
    other way round, and table is mat."""
    if outer_picks:
        return table[cols[outer], inner]
    return table[outer][:, cols[inner].T]


def _first_hit(n_outer, n_inner, width, block):
    """The first (outer, cell, inner) at which block's mask is True, or
    None.  block(outer, inner) takes two slices and returns the mask of
    that block laid out (outer, cell, inner); width is the number of int32
    elements a block holds per (outer, inner) pair.  A block spans as many
    whole outer rows as GRADED_BLOCK_ELEMENTS allows; when one outer row
    is more than that, its inner axis is cut too, and the least failing
    inner row of each cell is kept across the cuts before the first failing
    cell is chosen."""
    pairs = max(1, GRADED_BLOCK_ELEMENTS // max(1, width))
    if pairs >= n_inner:
        step = pairs // max(1, n_inner)
        for o0 in range(0, n_outer, step):
            mask = block(slice(o0, o0 + step), slice(0, n_inner))
            if mask.any():
                o, c, i = _np.unravel_index(mask.argmax(), mask.shape)
                return o0 + int(o), int(c), int(i)
        return None
    for o in range(n_outer):
        first = None
        for i0 in range(0, n_inner, pairs):
            mask = block(slice(o, o + 1), slice(i0, i0 + pairs))[0]
            at = _np.where(mask.any(axis=1), i0 + mask.argmax(axis=1),
                           n_inner)
            first = at if first is None else _np.minimum(first, at)
        hit = first < n_inner
        if hit.any():
            c = int(hit.argmax())
            return o, c, int(first[c])
    return None


def graded_laws(gd: GradedMonadData) -> list[Law]:
    """The graded-monad laws over the declared fragment: unit laws,
    associativity, regrade functoriality and compatibility, and naturality
    in the context; out-of-fragment tensors are reported as skips.  The
    engine quantifies over grades and carriers; the vectorized kernels
    sweep the function spaces.  The laws share one store of tables, which
    lives as long as the list returned."""
    grades, e, car, tx, tensor = (gd.grades, gd.unit_grade, gd.carriers,
                                  gd.tx, gd.tensor)
    names = sorted(car)
    tables = _Tables(gd)

    def below(m):
        return [n for n in grades if m >= n]

    def lifts(m, n, X, Y):
        # every carrier map h : X -> Y as a table
        return [dict(zip(car[X], h))
                for h in itertools.product(car[Y], repeat=len(car[X]))]

    def regrade_natural(m, n, X, Y, htab, v):
        # regrades commute with the lifted action of every carrier map
        return tx[(m, n, Y, tuple(htab[x] for x in v))] == \
            tuple(htab[x] for x in tx[(m, n, X, v)])

    def unit_right(G, m, A, g, xs):
        # (eta o pi)*_{m,e} agrees with the projection
        f = {(g2, a): gd.eta[(A, a)] for g2 in car[G] for a in car[A]}
        got = gd.ext_value(G, m, e, A, A, f, (g, xs))
        me = tensor(m, e)
        return got == (tx[(me, m, A, xs)] if me != m else xs) or (got,)

    def unit_left(G, m, A, B):
        # f*_{e,m} o (G x eta) = f, for every f
        fmat, dom_index = tables.fmat(G, A, m, B)
        extv = tables.ext(G, e, m, A, B)
        for g in car[G]:
            for a in car[A]:
                lhs = extv.col((g, gd.eta[(A, a)]))
                rhs = fmat[:, dom_index[(g, a)]]
                if not _np.array_equal(lhs, rhs):
                    return (g, a, f"f#{_first_diff(lhs, rhs)}")
        return True

    def naturality(m, n, G2, G, A, B):
        # f*_{m,n} o (u x T_m A) = (f o (u x A))*_{m,n} for u : G2 -> G.
        # Without overrides (f o (u x A))* at (g2, xs) is f* at (u g2, xs),
        # so both sides are columns of f*, before and after G's overrides,
        # and the left one gets the overrides at G2 that match f o (u x A).
        fmat, dom_index = tables.fmat(G, A, n, B)
        plain, extv = (tables.plain(G, m, n, A, B),
                       tables.ext(G, m, n, A, B))
        us = list(itertools.product(car[G], repeat=len(car[G2])))
        utabs = [dict(zip(car[G2], u)) for u in us]
        cells = [(g2, xs) for g2 in car[G2] for xs in gd.tvals(m, A)]
        keys = sorted((g2, a) for g2 in car[G2] for a in car[A])
        # per u: the f* column of (u g2, xs) for each cell (g2, xs), and
        # the f column of (u g2, a) for each (g2, a) of f o (u x A)
        ucells = _np.array([[extv.cell_index[(ut[g2], xs)] for g2, xs in cells]
                            for ut in utabs], dtype=_np.intp)
        ukeys = _np.array([[dom_index[(ut[g2], a)] for g2, a in keys]
                           for ut in utabs], dtype=_np.intp)
        over2 = _coded_overrides(tables.ovr.get((G2, m, n, A, B), ()), keys,
                                 tables.codecs[B],
                                 {c: i for i, c in enumerate(cells)})
        if extv is plain and not over2:
            return True  # both sides are the same columns of f*
        ptab, etab = (_np.ascontiguousarray(t.mat.T) for t in (plain, extv))
        ftab = _np.ascontiguousarray(fmat.T) if over2 else None

        def block(outer, inner):
            lhs = _block_gather(ptab, ucells, outer, inner, True)
            if over2:
                f2 = _block_gather(ftab, ukeys, outer, inner, True)
                for coded, ci, v in over2:
                    lhs[:, ci][(f2 == coded[:, None]).all(axis=1)] = v
            return lhs != _block_gather(etab, ucells, outer, inner, True)

        hit = _first_hit(len(us), len(fmat), len(cells) + len(keys), block)
        if hit is None:
            return True
        o, c, i = hit
        return (us[o], *cells[c], f"f#{i}")

    return [
        Law("graded-functor-identity", "tx-id",
            (grades, names, lambda m, X: gd.tvals(m, X)),
            lambda m, X, v: tx[(m, m, X, v)] == v),
        Law("graded-functor-composition", "tx-comp",
            (grades, below, lambda m, n: below(n), names,
             lambda m, n, l, X: gd.tvals(l, X)),
            lambda m, n, l, X, v:
                tx[(m, l, X, v)] == tx[(m, n, X, tx[(n, l, X, v)])]),
        Law("graded-regrade-naturality", "tx-naturality",
            (grades, below, names, names, lifts,
             lambda m, n, X, Y, htab: gd.tvals(n, X)), regrade_natural),
        Law("graded-unit-right", "unit-right",
            (names, grades, Guard(lambda G, m: tensor(m, e) in grades),
             names, lambda G, m, A: car[G],
             lambda G, m, A, g: gd.tvals(m, A)), unit_right),
        Law("graded-unit-left", "unit-left",
            (names, grades, Guard(lambda G, m: tensor(e, m) in grades),
             names, names), unit_left),
        Law("graded-associativity", "assoc",
            (grades, grades, grades,
             Guard(lambda l, m, n: tensor(l, m) in grades and
                   tensor(m, n) in grades and
                   tensor(tensor(l, m), n) in grades),
             names, names, names, names),
            lambda l, m, n, G, A, B, Cc: _graded_assoc_combo(
                tables, G, A, B, Cc, l, m, n)),
        Law("graded-context-naturality", "naturality",
            (grades, grades, Guard(lambda m, n: tensor(m, n) in grades),
             names, names, names, names), naturality),
        Law("graded-regrade-compatibility", "regrade-compat",
            (grades, grades, grades,
             Guard(lambda m, n, n2: n >= n2 and tensor(m, n) in grades and
                   tensor(m, n2) in grades),
             names, names, names),
            lambda m, n, n2, G, A, B: _graded_regrade_combo(
                tables, G, A, B, m, n, n2)),
    ]


def check_graded_laws(gd: GradedMonadData, stop_early: bool = False
                      ) -> LawReport:
    """The graded-monad laws over the declared fragment (graded_laws).

    stop_early returns after the first failing law (used by the mutation
    sweeps, where any failure suffices)."""
    return _report(f"{gd.name}/graded", graded_laws(gd), stop_early)


def _graded_assoc_combo(tables, G, A, B, Cc, l, m, n):
    """g*_{l (x) m, n} o f*_{l,m} vs (g*_{m,n} o f)*_{l, m (x) n} for all f,
    g at once: True, or the evidence of the first failing (f, g, cell).

    At a cell c = (g0, xs) both sides depend on f only through its
    signature there: the column of g*_{l (x) m, n} at f*_{l,m}(c), and the
    columns of g*_{m,n} at f's values at (g0, x), x in xs.  So a cell
    compares the sides once per class of the f with one signature, for
    every g: the left one a column of g*_{l (x) m, n}, the right one the
    concatenation of g*_{m,n}'s columns.  The overrides of the extension of
    h = g*_{m,n} o (pi, f) depend on the whole of h, so the (f, g) pairs
    they apply to are matched and patched one by one.  The first failing
    instance is the one of the loops outer row, cell, inner row, the outer
    one over the smaller of the f and g spaces."""
    gd = tables.gd
    lm, mn = gd.tensor(l, m), gd.tensor(m, n)
    cc = tables.codecs[Cc]
    fmat, fdom = tables.fmat(G, A, m, B)
    gmat = tables.fmat(G, B, n, Cc)[0]
    extF = tables.ext(G, l, m, A, B)
    extG1 = tables.ext(G, lm, n, B, Cc)
    extG2 = tables.ext(G, m, n, B, Cc)
    gpos = {g: i for i, g in enumerate(gd.carriers[G])}
    # f*_{l,m} at each cell, and f at each (g, a) of h's domain (sorted, as
    # the overrides of h are coded), as columns of extG1 and extG2
    fcol1 = extG1.colmap[[gpos[g] for g, _ in extF.cells], extF.mat]
    hkeys = sorted(fdom)
    key_index = {k: i for i, k in enumerate(hkeys)}
    fcol2 = extG2.colmap[[gpos[g] for g, _ in hkeys],
                         fmat[:, [fdom[k] for k in hkeys]]]
    # an override can give f*_{l,m} a value outside T_{l (x) m} B: its
    # column is an appended one of -1s, which no value of g* equals
    g1, g2 = extG1.mat, extG2.mat
    if (fcol1 == len(extG1.cells)).any():
        g1 = _np.concatenate([g1, _np.full((len(g1), 1), -1, dtype=_np.int32)],
                             axis=1)
    # the overrides of h's extension by cell and table: two that code the
    # same table apply to the same pairs, and the later one wins
    hover = {}
    for coded, ci, v in _coded_overrides(tables.ovr.get((G, l, mn, A, Cc), ()),
                                         hkeys, cc, extF.cell_index):
        hover[ci, coded.tobytes()] = coded, v
    patches = {}
    for (ci, _), (coded, v) in hover.items():
        fs, gs = _h_matches(g2, fcol2, coded)
        patches.setdefault(ci, []).append((fs, gs, _np.full(len(fs), v)))
    # per cell: the f rows, g rows and values of its patched pairs
    patches = {ci: [_np.concatenate(p) for p in zip(*ps)]
               for ci, ps in patches.items()}
    unpatched = [_np.empty(0, dtype=_np.intp)] * 3
    loop_f = len(fmat) <= len(gmat)
    best = None
    for ci, (g0, xs) in enumerate(extF.cells):
        keys = [key_index[(g0, x)] for x in xs]
        rep, inv = _classes([fcol1[:, ci]] +
                            [fcol2[:, k] for k in dict.fromkeys(keys)])
        lhs = g1[:, fcol1[rep, ci]]
        rhs = _np.full_like(lhs, cc.empty)
        for k in keys:
            rhs = cc.join(rhs, g2[:, fcol2[rep, k]])
        fs, gs, vs = patches.get(ci, unpatched)
        hit = _first_fail((lhs != rhs).T, inv,
                          (fs, gs, g1[gs, fcol1[fs, ci]] != vs), loop_f)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], ci, hit[1])
    if best is None:
        return True
    o, c, i = best
    fi, gi = (o, i) if loop_f else (i, o)
    return (f"f#{fi}", f"g#{gi}", *extF.cells[c])


def _classes(cols):
    """Rows grouped by their values in the int columns cols: one row of
    each class, and the class of each row."""
    key, size = _np.zeros(len(cols[0]), dtype=_np.intp), 1
    for col in cols:
        span = int(col.max()) + 1
        key, size = key * span + col, size * span
        # number the classes so far 0, 1, ..., which keeps size at most
        # the number of rows times a span
        seen = _np.zeros(size, dtype=bool)
        seen[key] = True
        present = _np.flatnonzero(seen)
        key, size = _np.searchsorted(present, key), len(present)
    rep = _np.empty(size, dtype=_np.intp)
    rep[key] = _np.arange(len(key))
    return rep, key


def _h_matches(g2, fcol2, coded):
    """The (f, g) rows at which h = g*_{m,n} o (pi, f) is the coded table,
    for g*_{m,n}'s rows g2 and its columns fcol2 at f's values on h's
    domain: (f rows, g rows)."""
    fs, gs = [_np.empty(0, dtype=_np.intp)], [_np.empty(0, dtype=_np.intp)]
    for g, row in enumerate(g2):
        if not _np.isin(coded, row).all():
            continue
        rows = _np.arange(len(fcol2))
        for k, want in enumerate(coded):
            rows = rows[row[fcol2[rows, k]] == want]
        fs.append(rows)
        gs.append(_np.full(len(rows), g, dtype=_np.intp))
    return _np.concatenate(fs), _np.concatenate(gs)


def _first_fail(bad, inv, patch, loop_f):
    """The first failing (outer, inner) pair of one cell, or None, the
    outer one over f when loop_f, else over g.  bad[s, g] tells whether the
    f of class s fail at g, and inv gives the class of each f; patch is
    (f rows, g rows, whether they fail) at the pairs whose right side an
    override sets, each pair at most once."""
    fs, gs, pfail = patch
    # the change the patches make to each pair's failure
    delta = pfail.astype(_np.intp) - bad[inv[fs], gs]
    if loop_f:
        count = bad.sum(axis=1)[inv]
        _np.add.at(count, fs, delta)
        if not count.any():
            return None
        f = int(_np.flatnonzero(count)[0])
        row = bad[inv[f]].copy()
        row[gs[fs == f]] = pfail[fs == f]
        return f, int(row.argmax())
    count = _np.bincount(inv, minlength=len(bad)) @ bad
    _np.add.at(count, gs, delta)
    if not count.any():
        return None
    g = int(_np.flatnonzero(count)[0])
    col = bad[inv, g]
    col[fs[gs == g]] = pfail[gs == g]
    return g, int(col.argmax())


def _graded_regrade_combo(tables, G, A, B, m, n, n2):
    """ext_{m,n}(T_xi o f) vs T_{m (+) xi} o ext_{m,n2}(f) for xi : n >= n2,
    and the mirrored condition in the first index (evidence tagged "left"):
    True, or the evidence of the first failing cell."""
    gd = tables.gd
    # T_xi o f : every value recoded through the (n, n2) regrade table
    extL = tables.regraded(G, m, n, n2, A, B)
    extR = tables.ext(G, m, n2, A, B)
    mn, mn2 = gd.tensor(m, n), gd.tensor(m, n2)
    lut2 = tables.regrade_lut(mn, mn2, B)
    for g in gd.carriers[G]:
        for xs in gd.tvals(m, A):
            lhs = extL.col((g, xs))
            rhs = lut2[extR.col((g, xs))]
            if not _np.array_equal(lhs, rhs):
                return (g, xs, f"f#{_first_diff(lhs, rhs)}")
    # first index: ext(f) o (G x T_xi) vs T_{xi (+) n2} o ext at m
    for m2 in gd.grades:
        if not (m >= m2) or gd.tensor(m2, n2) not in gd.grades:
            continue
        extS = tables.ext(G, m2, n2, A, B)
        lut3 = tables.regrade_lut(mn2, gd.tensor(m2, n2), B)
        for g in gd.carriers[G]:
            for xs in gd.tvals(m2, A):
                ys = gd.tx[(m, m2, A, xs)]
                lhs = extR.col((g, ys))
                rhs = lut3[extS.col((g, xs))]
                if not _np.array_equal(lhs, rhs):
                    return ("left", m2, g, xs, f"f#{_first_diff(lhs, rhs)}")
    return True


def graded_mutations(gd: GradedMonadData, rng=None, ext_samples=0):
    """Single-cell mutations: every eta cell, every regrade cell, and (when
    rng is given) a sample of extension-operator cells."""
    for (X, a), val in list(gd.eta.items()):
        space = gd.tvals(1, X)
        alt = space[(space.index(val) + 1) % len(space)]
        mut = gd.copy()
        mut.eta[(X, a)] = alt
        yield (f"eta[{X},{a}] := {alt}", mut)
    for (m, n, X, v), val in list(gd.tx.items()):
        space = gd.tvals(m, X)
        if len(space) < 2:
            continue
        alt = space[(space.index(val) + 1) % len(space)]
        mut = gd.copy()
        mut.tx[(m, n, X, v)] = alt
        yield (f"tx[{m},{n},{X},{v}] := {alt}", mut)
    if not rng or not ext_samples:
        return
    names = sorted(gd.carriers)
    made = 0
    while made < ext_samples:
        G, A, B = (rng.choice(names) for _ in range(3))
        m = rng.choice(gd.grades)
        n = rng.choice(gd.grades)
        if gd.tensor(m, n) not in gd.grades:
            continue
        dom = [(g, a) for g in gd.carriers[G] for a in gd.carriers[A]]
        f = {k: rng.choice(gd.tvals(n, B)) for k in dom}
        g0 = rng.choice(gd.carriers[G])
        xs = rng.choice(gd.tvals(m, A))
        cur = gd.ext_value(G, m, n, A, B, f, (g0, xs))
        space = gd.tvals(gd.tensor(m, n), B)
        alt = space[(space.index(cur) + 1) % len(space)]
        mut = gd.copy()
        key = (G, m, n, A, B, tuple(sorted(f.items())))
        mut.ext_overrides[(key, (g0, xs))] = alt
        made += 1
        yield (f"ext[{G},{m},{n},{A},{B}]@{(g0, xs)} := {alt}", mut)


# ---------------------------------------------------------------------------
# the law-set registry

@dataclass(frozen=True)
class LawSet:
    report: str          # last component of its reports' names
    applies: Callable    # instance -> whether the set runs on it
    check: Callable      # instance -> LawReport
    replays: bool = True  # its reports depend on the instance alone


def _rel(cond):
    return lambda d: isinstance(d, FinRelMonadData) and cond(d)


def _check_bistrong_set(d: FinRelMonadData) -> LawReport:
    if d.ext_bi is None:
        d.ext_bi = bistrong_from_strong(d)
    return check_bistrong_laws(d)


# set name (`relmeta lawcheck --laws`) -> law set, in run order.  The
# checkers are looked up when called, so wrappers installed on the module's
# check_* functions apply.
LAW_SETS = {
    "relmonad": LawSet("relmonad", _rel(lambda d: d.ext_plain is not None),
                       lambda d: check_rel_monad_laws(d)),
    "strong": LawSet("ext_strong", _rel(lambda d: d.ext_strong is not None),
                     lambda d: check_strong_laws(d)),
    "jstrong": LawSet("ext_j", _rel(lambda d: d.ext_j is not None),
                      lambda d: check_j_strong_laws(d)),
    "wstrong": LawSet("ext_w", _rel(lambda d: d.ext_w is not None and
                                         d.wfun is not None),
                      lambda d: check_w_strong_laws(d, d.wfun)),
    "graded": LawSet("graded", lambda d: isinstance(d, GradedMonadData),
                     lambda d: check_graded_laws(d)),
    "bistrong": LawSet("bistrong", _rel(lambda d: d.ext_bi is not None or
                                           d.ext_strong is not None),
                       _check_bistrong_set),
    # the strength maps are an argument of their checker: a report made
    # from other maps than the instance's own cannot be replayed
    "strengthmap": LawSet(
        "strength-maps",
        _rel(lambda d: d.ext_j is not None and d.jfun is not None),
        lambda d: check_strength_map_laws(strength_from_extension(d)[0], d),
        replays=False),
}


def replay_witness(d, report: LawReport) -> bool:
    """A failing report's witness must reproduce: re-running the law set
    its name ends in on the same data yields the same failing law with the
    same witness.  Raises LawError for a report that cannot be replayed
    from d alone."""
    fail = next((l for l in report.lines if l.status == "FAIL"), None)
    if fail is None:
        return False
    kind = report.name.rsplit("/", 1)[-1]
    law_set = next((s for s in LAW_SETS.values() if s.report == kind), None)
    if law_set is None or not law_set.replays or not law_set.applies(d):
        raise LawError(f"a {kind} report cannot be replayed from the"
                       f" instance alone")
    return any(l.law == fail.law and l.status == "FAIL" and
               l.witness == fail.witness for l in law_set.check(d).lines)
