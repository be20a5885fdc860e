"""Brute-force verification of the categorical law sets on finite data.

Everything here is tables: a finite category is explicit hom-sets with a
composition table, a relative monad is an object map plus unit and
extension tables, and each law is data (a Law): quantifier domains in
enumeration order, guards, values bound once (Let) and a predicate.  One
engine (_forall) sweeps every law's instances in the order of its
declared domains, outermost first, and stops at the first failing one:
that instance is the law's replayable witness, and the skip count of a
failing law covers the instances enumerated before it.  The engine
compiles each step shape once into nested loops, and every law of that
shape runs through them; a guard or Let that declares how many values it
reads runs once per instance of those (loop-invariant code motion).

The graded laws' vectorized kernels are in relmeta.graded, the one
module that imports numpy; check_graded_laws imports it on first use.

Monoidal structure on explicit categories may be *partial* (tensors whose
result leaves the declared object set are simply absent); law instances
that would need an undefined tensor are counted and reported as skips,
never silently dropped.  Structural isomorphisms are strict: the shipped
finite-set skeleton uses lexicographic pairing, under which the
associators and unitors really are identities (the symmetry is not, and is
carried as an explicit table).

finset_category is the one construction of that skeleton, finset_mor and
finset_table the one codec of its morphism names, and _lex_perm the one
construction of its block permutations (the symmetry and the bistrong
laws' shuffles).  The builtin instances restrict a monad's tables along an
object inclusion (restrict_monad); their strong and J-indexed tables come
from the plain extension by the skeleton's canonical strength
f+(g, u) = (f(g, -))*(u) (Kock 1972).  J's strong monoidal witnesses are a
JWitnesses (kappa, iota), and the W of W-strong tables a FinFunctor from
its source category.  A copy of an instance has tables of its own and
shares the category, which nothing writes once it is built.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .signatures import CategoryPresentation, GenDecl


class LawError(Exception):
    pass


MAX_OBJECTS = 4
MAX_MORPHISMS = 64


# ---------------------------------------------------------------------------
# reports

@dataclass
class LawLine:
    law: str
    status: str  # PASS | FAIL
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
        # and no entry for any other pair, so a hit in comp is composable
        for (g, f), h in self.comp.items():
            if f not in self.cod or g not in self.dom or \
                    self.cod[f] != self.dom[g]:
                raise LawError(f"comp {g} {f} = {h}: {g} after {f} is not"
                               f" a composable pair")
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
    """W of the W-strong tables: a functor from source into the instance's
    category, by its object and morphism maps."""
    source: FinCategory
    omap: dict
    mmap: dict


@dataclass
class JWitnesses:
    """J's strong monoidal witnesses kappa_{A,B} : JA (x) JB -> J(A (x) B)
    and iota : I -> J(I)."""
    kappa: dict            # (a, b) -> morphism, partial
    iota: str


def identity_functor(c: FinCategory) -> FinFunctor:
    return FinFunctor(c, {a: a for a in c.objects},
                      {m: m for m in c.morphisms()})


# ---------------------------------------------------------------------------
# the FinSet skeleton with lexicographic tensor

def finset_mor(n, m, images):
    """The name of the function {0..n-1} -> {0..m-1} with these images."""
    return f"f{n}_{m}_" + ("".join(str(i) for i in images) or "e")


def finset_table(name):
    """(n, m, images) of a finset_mor name."""
    n, m, rest = name[1:].split("_", 2)
    images = () if rest == "e" else tuple(int(c) for c in rest)
    return int(n), int(m), images


def _lex_perm(sizes, order):
    """The permutation of a product of blocks of these sizes that puts its
    blocks in this order, both sides lexicographically encoded: its
    finset_mor name.  The skeleton's symmetry is _lex_perm((a, b), (1, 0))."""
    images = []
    for digits in itertools.product(*(range(n) for n in sizes)):
        k = 0
        for j in order:
            k = k * sizes[j] + digits[j]
        images.append(k)
    n = math.prod(sizes)
    return finset_mor(n, n, images)


def finset_category(max_size: int = 3) -> FinCategory:
    objects = tuple(str(k) for k in range(max_size + 1))
    homs, comp, ids, dom, cod = {}, {}, {}, {}, {}
    tabs = {}
    for n in range(max_size + 1):
        for m in range(max_size + 1):
            ms = []
            for images in itertools.product(range(m), repeat=n):
                name = finset_mor(n, m, images)
                ms.append(name)
                tabs[name] = (n, m, images)
                dom[name], cod[name] = str(n), str(m)
            homs[(str(n), str(m))] = tuple(ms)
        ids[str(n)] = finset_mor(n, n, range(n))
    for g, (n1, m1, im1) in tabs.items():
        for f, (n0, m0, im0) in tabs.items():
            if m0 != n1:
                continue
            comp[(g, f)] = finset_mor(n0, m1, (im1[i] for i in im0))
    obj_tensor, mor_tensor, sigma = {}, {}, {}
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            if a * b <= max_size or a == 0 or b == 0:
                obj_tensor[(str(a), str(b))] = str(a * b)
                sigma[(str(a), str(b))] = _lex_perm((a, b), (1, 0))
    for f, (n0, m0, im0) in tabs.items():
        for g, (n1, m1, im1) in tabs.items():
            if (str(n0), str(n1)) in obj_tensor and \
                    (str(m0), str(m1)) in obj_tensor:
                images = (im0[i // n1] * m1 + im1[i % n1]
                          for i in range(n0 * n1))
                mor_tensor[(f, g)] = finset_mor(n0 * n1, m0 * m1, images)
    return FinCategory(objects, homs, comp, ids, dom, cod, unit="1",
                       obj_tensor=obj_tensor, mor_tensor=mor_tensor,
                       sigma=sigma)


def finset_skeleton_presentation(max_size: int = 3, word_cap: int = 16
                                 ) -> CategoryPresentation:
    """The skeleton of finset_category(max_size) as a presentation: its
    morphisms are the generators, and its composition table and its
    identities are the relations."""
    C = finset_category(max_size)
    identities = set(C.ids.values())
    pres = CategoryPresentation(list(C.objects), word_cap=word_cap)
    for f in C.morphisms():
        pres.generators[f] = GenDecl(f, C.dom[f], C.cod[f])
    pres.relations = [((g, f), () if h in identities else (h,))
                      for (g, f), h in C.comp.items()]
    pres.relations += [((i,), ()) for i in C.ids.values()]
    pres.validate()
    return pres


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
    jfun: JWitnesses | None = None     # J's strong monoidal witnesses
    wfun: FinFunctor | None = None     # W for the W-strong tables

    def copy(self):
        """A copy whose tables are its own; it shares the category, which
        nothing writes once it is built."""
        return copy.deepcopy(self, {id(self.C): self.C})


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


def exception_monad_tables(max_source: int):
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
    tmap_full, eta_full, ext_full = exception_monad_tables(a_max)
    aobjs = tuple(str(k) for k in range(a_max + 1))
    jmap = {a: a for a in aobjs}
    d = restrict_monad("exception-restriction", C, tmap_full, eta_full,
                       ext_full, aobjs, jmap)
    _add_canonical_strength(d)
    return d


def identity_monad_instance(c_max: int = 2) -> FinRelMonadData:
    """T = J = id on the finite-set skeleton: the trivial relative monad."""
    C = finset_category(c_max)
    same = {a: a for a in C.objects}
    d = restrict_monad("identity", C, same, C.ids, lambda x, y, f: f,
                       C.objects, same)
    _add_canonical_strength(d)
    return d


def _add_canonical_strength(d: FinRelMonadData):
    """The canonical strength of a relative monad on the finite-set
    skeleton, f+(g, u) = (f(g, -))*(u): a cell f : Gamma (x) JA -> TB is
    cut at each g in Gamma into f(g, -) : JA -> TB, which ext_plain
    extends.  Also sets the J-indexed fragment ext_j and J's monoidal
    witnesses, which are identities since the tensor is strict."""
    C, J, T = d.C, d.jmap, d.tmap
    d.ext_strong = {}
    for gamma in C.objects:
        for a in d.aobjs:
            for b in d.aobjs:
                gja = C.tensor_obj(gamma, J[a])
                gta = C.tensor_obj(gamma, T[a])
                if gja is None or gta is None:
                    continue
                an, tbn = int(J[a]), int(T[b])
                for f in C.hom(gja, T[b]):
                    _, _, ftab = finset_table(f)
                    images = []
                    for g in range(int(gamma)):
                        fg = finset_mor(an, tbn, ftab[g * an:(g + 1) * an])
                        images += finset_table(d.ext_plain[(a, b, fg)])[2]
                    d.ext_strong[(gamma, a, b, f)] = finset_mor(
                        int(gta), tbn, images)
    d.ext_j = {(g, a, b, f): v for (g, a, b, f), v in d.ext_strong.items()
               if g in d.aobjs}
    kappa = {(a, b): C.ids[t] for a in d.aobjs for b in d.aobjs
             if (t := C.tensor_obj(a, b)) in d.aobjs}
    d.jfun = JWitnesses(kappa, C.ids[C.unit])


# ---------------------------------------------------------------------------
# the quantifier engine
#
# Every law is data: its quantifier domains in enumeration order, the
# guards that cut out-of-fragment instances, the values computed once for
# the instances below them, and a predicate on the bound values.  One
# engine enumerates every law set, so they all share one order, one stop
# rule, one skip counter and one witness construction.  The engine is
# staged: the nest of steps of each shape is written out once as nested
# Python loops, so enumerating an instance interprets nothing.

@dataclass(frozen=True)
class Guard:
    """A side condition on the first `reads` values bound so far (all of
    them when None).  When it fails, the instances below it are out of the
    fragment: they count as one skip for each instance of the steps above
    it, and are not enumerated."""

    test: Callable
    reads: int | None = None


@dataclass(frozen=True)
class Let:
    """A value computed from the first `reads` values bound so far (all of
    them when None), once for every instance of the quantifiers it reads:
    the steps below take it as one more bound value, but it is not part of
    the witness.  None puts the instances below out of the fragment, as a
    failing Guard does."""

    value: Callable
    reads: int | None = None


@dataclass(frozen=True)
class Law:
    """One law as data.

    domains lists the quantifiers outermost first; each is a sequence, or
    a function of the values bound before it that returns one.  Guards and
    Lets may sit between them; the innermost step is a quantifier, or the
    law is rejected (LawError) when checked.  pred takes every bound value
    and returns True when the instance holds, None when it is out of the
    fragment (one skip), otherwise False or a tuple of evidence.  The
    witness is (tag, *quantified values, *evidence).  Laws whose steps
    have the same kinds in the same order share one compiled enumerator
    (_forall)."""

    name: str
    tag: str
    domains: tuple
    pred: Callable


# step shape (one letter per step: c a constant domain, C one that the
# Guard or Let ending its run of Cs is hoisted above, d a dependent domain,
# g a Guard, l a Let) -> its enumerator, compiled on the shape's first use
_ENGINES: dict = {}


def _engine_source(shape: str) -> str:
    """The source of the enumerator of one step shape: a function of the
    law's tag, predicate and steps (a domain, or a Guard's test or a Let's
    value) that runs one nested loop per quantifier and one if per Guard
    or Let, and returns (witness or None, skips).  A Guard or Let after a
    run of Cs runs above their loops, and counts a skip for each of their
    instances."""
    steps = [f"s{i}" for i in range(len(shape))]
    lines = [f"def forall(tag, pred, {', '.join(steps)}):",
             "    skipped = 0"]
    bound, shown, pad = [], [], "    "

    def check(i, skips):
        nonlocal pad
        call = f"s{i}({', '.join(bound)})"
        if shape[i] == "g":
            lines.extend([f"{pad}if not {call}:",
                          f"{pad}    skipped += {skips}", f"{pad}else:"])
        else:
            lines.extend([f"{pad}v{i} = {call}", f"{pad}if v{i} is None:",
                          f"{pad}    skipped += {skips}", f"{pad}else:"])
        pad += "    "

    for i, kind in enumerate(shape):
        if kind == "C" and shape[i - 1:i] != "C":
            end = len(shape) - len(shape[i:].lstrip("C"))
            check(end, " * ".join(f"len(s{j})" for j in range(i, end)))
        if kind in "gl":
            if shape[i - 1:i] != "C":
                check(i, "1")
        else:
            domain = f"s{i}({', '.join(bound)})" if kind == "d" else steps[i]
            lines.append(f"{pad}for v{i} in {domain}:")
            shown.append(f"v{i}")
            pad += "    "
        if kind != "g":
            bound.append(f"v{i}")
    lines += [f"{pad}r = pred({', '.join(bound)})",
              f"{pad}if r is None:",
              f"{pad}    skipped += 1",
              f"{pad}elif r is not True:",
              f"{pad}    return (tag, {', '.join(shown)}) + "
              f"(() if r is False else r), skipped",
              "    return None, skipped"]
    return "\n".join(lines) + "\n"


def _forall(law: Law):
    """Enumerate law's instances in the order of its domains and stop at
    the first failing one: (witness or None, skips counted on the way).
    A failing Guard, a Let whose value is None and a predicate that
    returns None count one skip for each instance below them; a Let's
    value is left out of the witness.  A Guard or Let runs once per
    instance of the quantifiers it reads: it is hoisted above the constant
    domains right above it whose values it does not read, never above a
    dependent domain or another Guard or Let (so it also runs where a
    domain it is hoisted above is empty, and counts no skip there).  The
    enumerator is the compiled one of the law's step shape."""
    shape, args, bound = [], [], []  # bound: values bound above each step
    for step in law.domains:
        bound.append(len(shape) - shape.count("g"))
        if isinstance(step, (Guard, Let)):
            fn = step.test if isinstance(step, Guard) else step.value
            reads = bound[-1] if step.reads is None else step.reads
            top = len(shape)
            while top and shape[top - 1] == "c" and bound[top - 1] >= reads:
                top -= 1
            shape[top:] = "C" * (len(shape) - top)
            if bound[top] > reads:  # values it cannot be hoisted above
                fn = functools.partial(_first, reads, fn)
            shape.append("g" if isinstance(step, Guard) else "l")
            args.append(fn)
        else:
            shape.append("d" if callable(step) else "c")
            args.append(step)
    shape = "".join(shape)
    if shape[-1:] not in ("c", "d"):
        raise LawError(f"law {law.name}: the innermost step must be a"
                       f" quantifier")
    run = _ENGINES.get(shape)
    if run is None:
        namespace = {}
        exec(compile(_engine_source(shape), f"<law engine {shape}>", "exec"),
             namespace)
        run = _ENGINES[shape] = namespace["forall"]
    return run(law.tag, law.pred, *args)


def _first(n, fn, *values):
    """fn of the first n values."""
    return fn(*values[:n])


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
    compose, homs, J, T = C.compose, C.homs.get, d.jmap, d.tmap

    def kleisli(a, b):
        return homs((J[a], T[b]), ())

    def unit_ext(a):
        got = ext.get((a, a, eta[a]))
        return got == C.ids[T[a]] or (eta[a], got)

    def ext_comp(a, b, c, f, g):
        gstar = ext[(b, c, g)]
        return compose(gstar, ext[(a, b, f)]) == \
            ext[(a, c, compose(gstar, f))]

    return [
        Law("unit-extension", "eta-ext", (A,), unit_ext),
        Law("extension-unit", "ext-unit", (A, A, kleisli),
            lambda a, b, f: compose(ext[(a, b, f)], eta[a]) == f),
        Law("extension-composition", "ext-comp",
            (A, A, A, lambda a, b, c: kleisli(a, b),
             lambda a, b, c, f: kleisli(b, c)), ext_comp),
    ]


def check_rel_monad_laws(d: FinRelMonadData) -> LawReport:
    return _report(f"{d.name}/relmonad", relmonad_laws(d))


def monad_morphism_laws(gamma: dict, d1: FinRelMonadData,
                        d2: FinRelMonadData) -> list[Law]:
    """gamma_A : T1 A -> T2 A a morphism of relative monads."""
    C, A, ext1, ext2 = d1.C, d1.aobjs, d1.ext_plain, d2.ext_plain
    compose, homs, J, T = C.compose, C.homs.get, d1.jmap, d1.tmap

    def extension(a, b, f):
        return compose(gamma[b], ext1[(a, b, f)]) == compose(
            ext2[(a, b, compose(gamma[b], f))], gamma[a])

    return [
        Law("morphism-unit", "unit", (A,),
            lambda a: compose(gamma[a], d1.eta[a]) == d2.eta[a]),
        Law("morphism-extension", "extension",
            (A, A, lambda a, b: homs((J[a], T[b]), ())), extension),
    ]


def check_monad_morphism(gamma: dict, d1: FinRelMonadData,
                         d2: FinRelMonadData) -> LawReport:
    return _report("monad-morphism", monad_morphism_laws(gamma, d1, d2))


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
    homs, tensor, ids, ext_get = C.homs.get, C.mor_tensor.get, C.ids, ext.get
    # a composite is one read of C's table, which has entries for the
    # composable pairs only (validate); C.compose runs on a miss and raises
    comp_get, compose = C.comp.get, C.compose

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
    if w_omap:
        def nat_mors(gp, g):
            return [wfun.mmap[m] for m in wfun.source.hom(gp, g)]
    else:
        def nat_mors(gp, g):
            return homs((gp, g), ())

    def unit(a):
        if unit_idx is None:
            return None
        got = ext_get((unit_idx, a, a, eta[a]))
        return got == ids[T[a]] or (got,)

    def ext_unit(g, a, b, f):
        fstar = ext_get((g, a, b, f))
        if fstar is None:
            return None
        mid = tensor((ids[wobj(g)], eta[a]))
        return (comp_get((fstar, mid)) or compose(fstar, mid)) == f

    def ext_unit_defined(g, a):
        return tj[g, a] is not None and tt[g, a] is not None

    def assoc_defined(g, e, a, b):
        return None not in (tj[g, a], tt[g, a], C.tensor_obj(dg[g, e], J[a]),
                            C.tensor_obj(dg[g, e], T[a]), tj[e, b])

    @functools.cache
    def assoc_mids(g, e, a, b, f):
        # the index of Gamma (x) Delta, W(Delta) (x) f* and W(Delta) (x) f,
        # which every (C, h) shares; either tensor may be undefined, which
        # puts each h out of the fragment
        if (g, a, b, f) not in ext:
            return None
        we = ids[wobj(e)]
        return comp_idx[g, e], tensor((we, ext[(g, a, b, f)])), \
            tensor((we, f))

    def assoc_mids_once(g, e, a, b, c, f):
        # not again for each C, which assoc_mids does not read
        return assoc_mids(g, e, a, b, f)

    def assoc(g, e, a, b, c, f, mids, h):
        gstar = ext_get((e, b, c, h))
        ge, mid_t, mid_j = mids
        if gstar is None or mid_t is None or mid_j is None:
            return None
        rhs = ext_get((ge, a, c,
                       comp_get((gstar, mid_j)) or compose(gstar, mid_j)))
        return None if rhs is None else \
            (comp_get((gstar, mid_t)) or compose(gstar, mid_t)) == rhs

    def nat_lifts(gp, g, h, a):
        # h (x) JA and h (x) TA, or None where a tensor is undefined
        hj, ht = tensor((h, ids[J[a]])), tensor((h, ids[T[a]]))
        if None in (tj[g, a], tj[gp, a], tt[gp, a], tt[g, a], hj, ht):
            return None
        return hj, ht

    def naturality(gp, g, h, a, b, lifts, f):
        hj, ht = lifts
        fstar = ext_get((g, a, b, f))
        lhs = ext_get((gp, a, b, comp_get((f, hj)) or compose(f, hj)))
        if fstar is None or lhs is None:
            return None
        return lhs == (comp_get((fstar, ht)) or compose(fstar, ht))

    return [
        Law("strong-unit", "strong-unit", (A,), unit),
        Law("strong-extension-unit", "strong-ext-unit",
            (indices, A, A, Guard(ext_unit_defined, reads=2),
             lambda g, a, b: homs((tj[g, a], T[b]), ())), ext_unit),
        Law("strong-associativity", "strong-assoc",
            (indices, indices,
             Guard(lambda g, e: comp_idx[g, e] is not None),
             A, A, A, Guard(assoc_defined, reads=4),
             lambda g, e, a, b, c: homs((tj[g, a], T[b]), ()),
             Let(assoc_mids_once),
             lambda g, e, a, b, c, f, mids: homs((tj[e, b], T[c]), ())),
            assoc),
        Law("strong-naturality", "strong-naturality",
            (indices, indices, nat_mors, A, A, Let(nat_lifts, reads=4),
             lambda gp, g, h, a, b, lifts: homs((tj[g, a], T[b]), ())),
            naturality),
    ]


def check_strong_laws(d: FinRelMonadData, table: str = "ext_strong",
                      indices=None, wfun: FinFunctor | None = None
                      ) -> LawReport:
    return _report(f"{d.name}/{table}", strong_laws(d, table, indices, wfun))


def check_w_strong_laws(d: FinRelMonadData, wfun: FinFunctor) -> LawReport:
    return check_strong_laws(d, table="ext_w",
                             indices=tuple(wfun.source.objects), wfun=wfun)


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
    iota, kappa, plain = d.jfun.iota, d.jfun.kappa, d.ext_plain
    compose, homs, tensor, ids = (C.compose, C.homs.get,
                                  C.mor_tensor.get, C.ids)
    unit_a = next((a for a in reversed(A) if J[a] == C.unit), None)

    def unitor(b):
        # T(lambda) o theta_{I,B} o (iota (x) TB) = lambda, strict unitors
        if unit_a is None or (unit_a, b) not in theta:
            return None
        lhs = compose(theta[(unit_a, b)], tensor((iota, ids[T[b]])))
        return lhs == ids[T[b]] or (lhs,)

    def eta_compat(a, b):
        # theta o (JA (x) eta_B) = eta_{AxB} o kappa
        if (a, b) not in theta:
            return None
        return compose(theta[(a, b)], tensor((ids[J[a]], eta[b]))) \
            == compose(eta[C.tensor_obj(a, b)], kappa[(a, b)])

    def assoc(a, b, c):
        ab, bc = C.tensor_obj(a, b), C.tensor_obj(b, c)
        if ab not in A or bc not in A or (ab, c) not in theta or \
                (a, bc) not in theta or (b, c) not in theta or \
                C.tensor_obj(J[a], J[b]) is None:
            return None
        lhs = compose(theta[(ab, c)], tensor((kappa[(a, b)], ids[T[c]])))
        return lhs == compose(theta[(a, bc)],
                              tensor((ids[J[a]], theta[(b, c)])))

    @functools.cache
    def kappa_inv(a, b):
        return _kappa_inv(C, kappa[(a, b)])

    def extension(a, b, c, f):
        lhs = compose(theta[(a, c)], tensor((ids[J[a]], plain[(b, c, f)])))
        inner = compose(theta[(a, c)], compose(tensor((ids[J[a]], f)),
                                               kappa_inv(a, b)))
        return lhs == compose(
            plain[(C.tensor_obj(a, b), C.tensor_obj(a, c), inner)],
            theta[(a, b)])

    return [
        Law("strength-unitor", "theta-unitor", (A,), unitor),
        Law("strength-eta", "theta-eta", (A, A), eta_compat),
        Law("strength-associativity", "theta-assoc", (A, A, A), assoc),
        Law("strength-extension", "theta-ext",
            (A, A, A, Guard(lambda a, b, c: (a, b) in theta and
                            (a, c) in theta),
             lambda a, b, c: homs((J[b], T[c]), ())), extension),
    ]


def check_strength_map_laws(theta: dict, d: FinRelMonadData) -> LawReport:
    return _report(f"{d.name}/strength-maps", strength_map_laws(theta, d))


# -- bistrong ----------------------------------------------------------------
#
# With the lexicographic tensor on the finite-set skeleton, all the
# reassociations in the two-sided laws are identity permutations, so the
# checks compose only the genuinely non-trivial block permutations.

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
                a_n, t_n = int(d.jmap[a]), int(d.tmap[a])
                src_j = g_n * a_n * d_n
                if str(src_j) not in C.objects or \
                        str(g_n * t_n * d_n) not in C.objects:
                    continue
                # p : Gamma x (Delta x JA) -> Gamma x (JA x Delta)
                p = _lex_perm((g_n, d_n, a_n), (0, 2, 1))
                # q : Gamma x (TA x Delta) -> Gamma x (Delta x TA)
                q = _lex_perm((g_n, t_n, d_n), (0, 2, 1))
                for b in d.aobjs:
                    for f in C.hom(str(src_j), d.tmap[b]):
                        fstar = d.ext_strong[(gd, a, b, C.compose(f, p))]
                        out[(gamma, delta, a, b, f)] = C.compose(fstar, q)
    return out


def bistrong_laws(d: FinRelMonadData) -> list[Law]:
    """The two-sided extension laws and, when the symmetry is present, the
    symmetric-bistrength condition.  Table cells are quantified through
    the components of their keys, in the table's order."""
    C, U, ext = d.C, d.C.unit, d.ext_bi
    if ext is None:
        raise LawError("bistrong tables absent")
    t = _trie(ext)
    comp_get, compose, tensor, ids = (C.comp.get, C.compose,
                                      C.mor_tensor.get, C.ids)

    def keys(*prefix):
        node = t
        for k in prefix:
            node = node[k]
        return node

    def unit(a):
        got = ext.get((U, U, a, a, d.eta[a]))
        if got is None:
            return None
        return got == ids[d.tmap[a]] or (got,)

    def lift(g, e, m):
        # Gamma (x) (m (x) Delta), None where the tensor is undefined
        mid = tensor((m, ids[e]))
        return None if mid is None else tensor((ids[g], mid))

    def ext_unit(g, e, a, b, f):
        ge = lift(g, e, d.eta[a])
        if ge is None:
            return None
        return compose(ext[(g, e, a, b, f)], ge) == f

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
        rhs = ext.get((og, od, a, c,
                       comp_get((gstar, m2j)) or compose(gstar, m2j)))
        return None if rhs is None else \
            (comp_get((gstar, m2)) or compose(gstar, m2)) == rhs

    @functools.cache
    def shuffle(g, e, p, x):
        # sigma~ : Gamma x (X x (Delta x Gamma')) -> (Gamma x Delta) x
        # (X x Gamma') at the object x, None if its domain leaves the category
        sizes = (int(g), int(x), int(e), int(p))
        if str(math.prod(sizes)) not in C.objects:
            return None
        return _lex_perm(sizes, (0, 2, 1, 3))

    def symmetric(g, e, p, a, b, f):
        # the (Gamma x Delta, Gamma') cell against (Gamma, Delta x Gamma')
        dgp = C.tensor_obj(e, p)
        sj, st = shuffle(g, e, p, d.jmap[a]), shuffle(g, e, p, d.tmap[a])
        if dgp is None or sj is None or st is None:
            return None
        rhs = ext.get((g, dgp, a, b, compose(f, sj)))
        return None if rhs is None else \
            compose(ext[(C.tensor_obj(g, e), p, a, b, f)], st) == rhs

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
# The data and the mutation sweep live here; the laws and their vectorized
# kernels are in relmeta.graded, which imports numpy and is imported on the
# first graded check.

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


def check_graded_laws(gd: GradedMonadData, stop_early: bool = False
                      ) -> LawReport:
    """The graded-monad laws over the declared fragment (graded_laws).

    stop_early returns after the first failing law (used by the mutation
    sweeps, where any failure suffices)."""
    from .graded import graded_laws  # the first graded check loads numpy
    return _report(f"{gd.name}/graded", graded_laws(gd), stop_early)


def graded_mutations(gd: GradedMonadData, rng=None, ext_samples=0):
    """Single-cell mutations: every eta cell, every regrade cell, and (when
    rng is given) a sample of extension-operator cells, drawn again (100
    draws a sample at most) where a cell's space holds one value."""
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
    if not any(gd.carriers.values()):
        return  # no context value, so no extension cell
    made = 0
    for _ in range(100 * ext_samples):
        if made == ext_samples:
            return
        G, A, B = (rng.choice(names) for _ in range(3))
        m = rng.choice(gd.grades)
        n = rng.choice(gd.grades)
        if gd.tensor(m, n) not in gd.grades or not gd.carriers[G]:
            continue
        dom = [(g, a) for g in gd.carriers[G] for a in gd.carriers[A]]
        f = {k: rng.choice(gd.tvals(n, B)) for k in dom}
        g0 = rng.choice(gd.carriers[G])
        xs = rng.choice(gd.tvals(m, A))
        cur = gd.ext_value(G, m, n, A, B, f, (g0, xs))
        space = gd.tvals(gd.tensor(m, n), B)
        if len(space) < 2:
            continue
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
    # induced tables go on a shallow copy: stored on d, they would outlive
    # a later change to its strong tables
    if d.ext_bi is None:
        d = replace(d, ext_bi=bistrong_from_strong(d))
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
