"""Finite presentations of the base category, gradings, and effect theories.

A signature bundles: a presented base category (objects, generator
morphisms, relations), optionally a grading (one of the two built-in
numeric gradings, or a finitely presented strict symmetric monoidal
category), and optionally an effect theory (operation symbols with
judgement-shaped signatures plus equational axioms).

Word normalization on presentations is a bounded exhaustive closure: the
normal form of a word is the (length, lexicographic)-least word reachable
by relation rewrites without ever exceeding the configured length cap.
That choice makes normalization provably idempotent: the reachable set
from the normal form is contained in the reachable set of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax
from .syntax import Grade, GradeMor, SyntaxError_, TypeExpr, gnat, gname


class SignatureError(Exception):
    pass


# ---------------------------------------------------------------------------
# Category presentations

Word = tuple  # tuple[str, ...] of generator names, composition order g;f = "g after f"


@dataclass(frozen=True)
class GenDecl:
    name: str
    src: str
    tgt: str


@dataclass
class CategoryPresentation:
    objects: list[str] = field(default_factory=list)
    generators: dict[str, GenDecl] = field(default_factory=dict)
    relations: list[tuple[Word, Word]] = field(default_factory=list)
    word_cap: int = 16

    def validate(self):
        objs = set(self.objects)
        if len(objs) != len(self.objects):
            raise SignatureError("duplicate object declaration")
        for g in self.generators.values():
            if g.src not in objs or g.tgt not in objs:
                raise SignatureError(
                    f"generator {g.name} : {g.src} -> {g.tgt} uses an undeclared object")
        for lhs, rhs in self.relations:
            if not lhs and not rhs:
                continue
            e1 = self.word_endpoints(lhs) if lhs else None
            e2 = self.word_endpoints(rhs) if rhs else None
            if e1 is not None and e2 is not None and e1 != e2:
                raise SignatureError(
                    f"relation sides {';'.join(lhs)} = {';'.join(rhs)}"
                    f" have different endpoints {e1} vs {e2}")
            for e in (e1, e2):
                # a relation against an identity word forces an endomorphism
                if e is not None and (e1 is None or e2 is None) and e[0] != e[1]:
                    raise SignatureError(
                        f"identity relation on a non-endomorphism word: {e}")

    def word_endpoints(self, word: Word, at: str | None = None):
        """Endpoints (src, tgt) of a composition word g_1;...;g_k (g_k first).

        Empty words are identities; `at` supplies their object.
        """
        if not word:
            if at is None:
                raise SignatureError("identity word needs an object annotation")
            return (at, at)
        src = tgt = None
        for name in reversed(word):
            g = self.generators.get(name)
            if g is None:
                raise SignatureError(f"unknown generator {name!r}")
            if src is None:
                src = g.src
            elif g.src != tgt:
                raise SignatureError(
                    f"word {';'.join(word)} is not composable at {name}"
                    f" (expected source {tgt}, got {g.src})")
            tgt = g.tgt
        return (src, tgt)

    def _rewrite_index(self):
        # relations indexed by the leading generator of each non-empty side
        idx = {}
        for lhs, rhs in self.relations:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if not a:
                    continue  # insertion of an identity side only grows words
                idx.setdefault(a[0], []).append((a, b))
        self.__dict__["_ridx"] = idx
        return idx

    def _rewrites(self, word: Word, bound: int):
        idx = self.__dict__.get("_ridx") or self._rewrite_index()
        for i, g in enumerate(word):
            for a, b in idx.get(g, ()):
                n = len(a)
                if word[i:i + n] == a and len(word) - n + len(b) <= bound:
                    yield word[:i] + b + word[i + n:]

    def normalize_word(self, word: Word, at: str | None = None) -> Word:
        """Least word (by length then lexicographic order) reachable from
        `word` through relation rewrites.

        Exploration is bounded by max(len(word), longest relation side):
        the bound is monotone along shrinking words, which makes the least
        reachable word a provable fixed point (normalize is idempotent).
        """
        self.word_endpoints(word, at)
        if len(word) > self.word_cap:
            raise SignatureError(
                f"word of length {len(word)} exceeds the cap {self.word_cap}")
        bound = max([len(word)] + [len(s) for rel in self.relations
                                   for s in rel])
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for w in frontier:
                for w2 in self._rewrites(w, bound):
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
            frontier = nxt
            if len(seen) > 200000:
                raise SignatureError(
                    "relation closure exceeds the exploration budget")
        return min(seen, key=lambda w: (len(w), w))

    def compose_word(self, *words: Word, at: str | None = None) -> Word:
        """Concatenate-and-normalize; raises on non-composable chains."""
        out = ()
        for w in reversed(words):  # apply left-to-right in diagram order
            out = tuple(w) + out
        self.word_endpoints(out, at)
        return self.normalize_word(out, at)


def _parse_word(text: str) -> tuple[Word, str | None]:
    names = [p.strip() for p in text.split(";") if p.strip()]
    if len(names) == 1 and names[0].startswith("id_"):
        return (), names[0][3:]
    return tuple(names), None


def pres_line(pres: CategoryPresentation, n: int, head: str, rest: str):
    """Add line n of a file, an `object`, `gen` or `rel` line, to pres."""
    pres.__dict__.pop("_ridx", None)  # the rewrite index is rebuilt lazily
    if head == "object":
        if len(rest.split()) != 1:
            raise SyntaxError_("expected `object <name>`", n)
        pres.objects.append(rest)
    elif head == "gen":
        name, colon, ends = rest.partition(":")
        src, arrow, tgt = ends.partition("->")
        if not (colon and arrow) or \
                any(len(w.split()) != 1 for w in (name, src, tgt)):
            raise SyntaxError_("expected `gen f : A -> B`", n)
        name = name.strip()
        if name in pres.generators:
            raise SignatureError(f"duplicate generator {name!r}")
        pres.generators[name] = GenDecl(name, src.strip(), tgt.strip())
    else:
        (lhs,), rhs = syntax.split_entry(n, "rel", rest, 1)
        w1, at1 = _parse_word(lhs)
        w2, at2 = _parse_word(rhs)
        pres.relations.append((w1, w2))
        # endpoints validated in validate(); identity-side objects checked here
        for w, at in ((w1, at1), (w2, at2)):
            if not w and at is not None and at not in pres.objects:
                raise SignatureError(f"id_{at}: undeclared object {at!r}")


# ---------------------------------------------------------------------------
# Gradings

class Grading:
    """Interface shared by the built-in numeric gradings and presented ones."""

    name = "abstract"

    def unit(self) -> Grade:
        raise NotImplementedError

    def tensor(self, m: Grade, n: Grade) -> Grade:
        raise NotImplementedError

    def has_object(self, m: Grade) -> bool:
        raise NotImplementedError

    def has_mor(self, xi: GradeMor) -> bool:
        raise NotImplementedError

    def id_mor(self, m: Grade) -> GradeMor:
        return GradeMor(m, m, None if isinstance(self, BuiltinGrading) else ())

    def compose(self, phi: GradeMor, xi: GradeMor) -> GradeMor:
        """phi o xi for xi : m -> n, phi : n -> l."""
        raise NotImplementedError

    def tensor_mor(self, xi: GradeMor, phi: GradeMor) -> GradeMor:
        raise NotImplementedError

    def norm(self, g: Grade) -> Grade:
        """Collapse formal tensors through the grading's tensor."""
        if g.kind == "tensor":
            return self.tensor(self.norm(g.subs[0]), self.norm(g.subs[1]))
        return g

    def norm_mor(self, xi: GradeMor) -> GradeMor:
        return GradeMor(self.norm(xi.src), self.norm(xi.tgt), xi.word)

    def equal_grades(self, m: Grade, n: Grade) -> bool:
        return self.norm(m) == self.norm(n)

    def word_mor(self, word) -> GradeMor:
        raise SignatureError("this grading has no generator words")


class BuiltinGrading(Grading):
    """The thin gradings (N, >=, +, 0) and (N, >=, *, 1).

    Objects are naturals, there is a unique morphism m -> n exactly when
    m >= n, and all structural isomorphisms are identities (the categories
    are strict and thin).
    """

    def __init__(self, flavor: str):
        assert flavor in ("add", "mult")
        self.flavor = flavor
        self.name = f"builtin-{flavor}"

    def unit(self):
        return gnat(0 if self.flavor == "add" else 1)

    def tensor(self, m, n):
        if m.kind != "nat" or n.kind != "nat":
            raise SignatureError("built-in gradings have numeric grades only")
        return gnat(m.nat + n.nat if self.flavor == "add" else m.nat * n.nat)

    def has_object(self, m):
        return self.norm(m).kind == "nat"

    def has_mor(self, xi):
        if xi.word is not None:
            return False
        src, tgt = self.norm(xi.src), self.norm(xi.tgt)
        return src.kind == "nat" and tgt.kind == "nat" and src.nat >= tgt.nat

    def compose(self, phi, xi):
        if self.norm(xi.tgt) != self.norm(phi.src):
            raise SignatureError(f"grade morphisms not composable: {xi} then {phi}")
        # endpoints keep their syntax: a tensor-written grade records the
        # factorization that unmerge reads off the type
        return GradeMor(xi.src, phi.tgt)

    def tensor_mor(self, xi, phi):
        return GradeMor(self.tensor(self.norm(xi.src), self.norm(phi.src)),
                        self.tensor(self.norm(xi.tgt), self.norm(phi.tgt)))


class PresentedGrading(Grading):
    """A finitely presented strict symmetric monoidal grading category."""

    def __init__(self, pres: CategoryPresentation, unit_obj: str,
                 tensor_table: dict):
        self.pres = pres
        self.unit_obj = unit_obj
        self.tensor_table = tensor_table  # (a, b) -> c
        self.name = "presented"
        self._validate()

    def _validate(self):
        objs = set(self.pres.objects)
        if self.unit_obj not in objs:
            raise SignatureError(f"grading unit {self.unit_obj!r} undeclared")
        for (a, b), c in self.tensor_table.items():
            if {a, b, c} - objs:
                raise SignatureError(f"grading tensor {a} {b} = {c} uses undeclared objects")
        for a in self.pres.objects:
            for b in self.pres.objects:
                if (a, b) not in self.tensor_table:
                    raise SignatureError(f"grading tensor not total: missing {a} (+) {b}")
            if self.tensor_table.get((self.unit_obj, a)) != a or \
                    self.tensor_table.get((a, self.unit_obj)) != a:
                raise SignatureError(f"strict unit law fails at {a}")
        for a in self.pres.objects:
            for b in self.pres.objects:
                for c in self.pres.objects:
                    ab = self.tensor_table[(a, b)]
                    bc = self.tensor_table[(b, c)]
                    if self.tensor_table[(ab, c)] != self.tensor_table[(a, bc)]:
                        raise SignatureError("strict associativity fails on objects")
                if self.tensor_table[(a, b)] != self.tensor_table[(b, a)]:
                    raise SignatureError(
                        "strict symmetry fails on objects; declare a symmetric tensor")

    def unit(self):
        return gname(self.unit_obj)

    def tensor(self, m, n):
        if m.kind != "name" or n.kind != "name":
            raise SignatureError("presented gradings use named grades")
        key = (m.name, n.name)
        if key not in self.tensor_table:
            raise SignatureError(f"grading tensor undefined on {key}")
        return gname(self.tensor_table[key])

    def has_object(self, m):
        m = self.norm(m)
        return m.kind == "name" and m.name in self.pres.objects

    def has_mor(self, xi):
        if xi.word is None:
            return False
        src, tgt = self.norm(xi.src), self.norm(xi.tgt)
        if not xi.word:
            return self.has_object(src) and src == tgt
        s, t = self.pres.word_endpoints(xi.word)
        return gname(s) == src and gname(t) == tgt

    def compose(self, phi, xi):
        if xi.tgt != phi.src:
            raise SignatureError(f"grade morphisms not composable: {xi} then {phi}")
        word = self.pres.compose_word(phi.word, xi.word,
                                      at=xi.src.name if not (phi.word or xi.word) else None)
        return GradeMor(xi.src, phi.tgt, word)

    def tensor_mor(self, xi, phi):
        # tensor on generators must be declared pointwise; desk-scale
        # presentations keep morphism tensors to the identity cases.
        if not xi.word and not phi.word:
            return self.id_mor(self.tensor(xi.src, phi.src))
        raise SignatureError("presented gradings only tensor identity morphisms")

    def word_mor(self, word) -> GradeMor:
        src, tgt = self.pres.word_endpoints(tuple(word))
        return GradeMor(gname(src), gname(tgt), self.pres.normalize_word(tuple(word)))


# ---------------------------------------------------------------------------
# Effect theories


@dataclass(frozen=True)
class OpDecl:
    name: str
    params: tuple[tuple[str, TypeExpr], ...]  # judgement-shaped: named context
    result: TypeExpr


@dataclass
class Axiom:
    name: str
    zones: tuple
    lhs: syntax.Term
    rhs: syntax.Term
    ty: TypeExpr
    form: str = "A"


@dataclass
class EffectTheory:
    calculus: str = "rmm"
    ops: dict[str, OpDecl] = field(default_factory=dict)
    axioms: list[Axiom] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The signature bundle


@dataclass
class Signature:
    category: CategoryPresentation = field(default_factory=CategoryPresentation)
    grading: Grading | None = None
    theory: EffectTheory | None = None

    # -- lookups used by the parser and checker -------------------------

    def has_object(self, name: str) -> bool:
        return name in self.category.objects

    def has_generator(self, name: str) -> bool:
        return name in self.category.generators

    def gen_decl(self, name: str) -> GenDecl:
        g = self.category.generators.get(name)
        if g is None:
            raise SignatureError(f"unknown generator {name!r}")
        return g

    def has_op(self, name: str) -> bool:
        return self.theory is not None and name in self.theory.ops

    def op_decl(self, name: str) -> OpDecl:
        if not self.has_op(name):
            raise SignatureError(f"unknown operation symbol {name!r}")
        return self.theory.ops[name]

    def op_arity(self, name: str) -> int:
        return len(self.op_decl(name).params)


def builtin_grading(flavor: str) -> BuiltinGrading:
    return BuiltinGrading(flavor)


# ---------------------------------------------------------------------------
# Signature files

def load_signature(text: str) -> Signature:
    """Load a signature from its text (see the file grammar in the README).

    Lines: `calculus <tag>`, `object <name>`, `gen f : A -> B`,
    `rel w = w`, `wordcap <n>`, `grading builtin add|mult`,
    `grading unit <obj>` / `grading tensor a b = c`,
    `op name : (x : T, ...) -> T`, `axiom <t> = <t> in [ctx] : T`.
    """
    kv = syntax.read_keys(text, ("calculus", "wordcap"),
                          ("object", "gen", "rel", "grading", "op", "axiom"))
    calculus = syntax.calculus_of(kv)
    sig = Signature()
    for head in ("object", "gen", "rel"):
        for n, rest in kv.get(head, ()):
            pres_line(sig.category, n, head, rest)
    if "wordcap" in kv:
        n, cap = kv["wordcap"]
        if not (cap.isascii() and cap.isdigit()):
            raise SyntaxError_("`wordcap` takes a natural number", n)
        sig.category.word_cap = int(cap)
    sig.category.validate()
    _check_cap_closure(sig.category)
    if "grading" in kv:
        sig.grading = _load_grading(kv["grading"])
    if "op" in kv or "axiom" in kv:
        theory = EffectTheory(calculus=calculus)
        sig.theory = theory
        for n, rest in kv.get("op", ()):
            decl = syntax.on_line(n, rest, _parse_op, sig)
            if decl.name in theory.ops or sig.has_generator(decl.name):
                raise SignatureError(f"duplicate symbol {decl.name!r}")
            theory.ops[decl.name] = decl
        for i, (n, rest) in enumerate(kv.get("axiom", ())):
            theory.axioms.append(
                syntax.on_line(n, rest, _parse_axiom, sig, calculus, i))
        _validate_theory(sig)
    return sig


def _check_cap_closure(pres: CategoryPresentation):
    """Signature-load error if relation closure needs words beyond the cap."""
    for lhs, rhs in pres.relations:
        if max(len(lhs), len(rhs)) > pres.word_cap:
            raise SignatureError(
                f"relation word longer than the cap {pres.word_cap}")


def _load_grading(lines) -> Grading:
    """The grading of a signature's `grading` lines, (line number, rest)."""
    entries = [(n, *syntax.split_head(rest)) for n, rest in lines]
    if any(kind == "builtin" for _, kind, _ in entries):
        if len(lines) != 1:
            raise SignatureError("a built-in grading takes no further grading lines")
        n, _, flavor = entries[0]
        if flavor not in ("add", "mult"):
            raise SyntaxError_(f"unknown built-in grading {flavor!r}", n)
        return BuiltinGrading(flavor)
    pres = CategoryPresentation()
    unit_obj = None
    tensor, first = {}, {}
    for n, kind, body in entries:
        if kind in ("object", "gen", "rel"):
            pres_line(pres, n, kind, body)
        elif kind == "unit":
            syntax.once(first, kind, n, "grading unit")
            unit_obj = body
        elif kind == "tensor":
            ab, c = syntax.split_entry(n, "grading tensor", body, 2)
            syntax.once(first, ab, n, " ".join(("grading tensor", *ab)))
            tensor[ab] = c
        else:
            raise SyntaxError_(f"unknown `grading` key {kind!r}", n)
    pres.validate()
    if unit_obj is None:
        raise SignatureError("presented grading needs a unit object")
    return PresentedGrading(pres, unit_obj, tensor)


def _parse_op(text: str, sig: Signature) -> OpDecl:
    # name : (x : T, y : U) -> T2    |    name : () -> T
    p = syntax._P(text, sig=sig)
    name = p.name()
    p.expect(":")
    p.expect("(")
    params = () if p.peek() == ")" else p.context()
    p.expect(")")
    p.expect("->")
    result = p.type_()
    if p.peek() is not None:
        p.err("trailing input after operation")
    return OpDecl(name, params, result)


def _parse_axiom(text: str, sig: Signature, calculus: str, idx: int) -> Axiom:
    # <lhs> = <rhs> in [x : T, ...] : T
    p = syntax._P(text, sig=sig, calculus=calculus)
    lhs = p.term()
    p.expect("=")
    rhs = p.term()
    p.expect("in")
    p.expect("[")
    ctx = () if p.peek() == "]" else p.context()
    p.expect("]")
    p.expect(":")
    ty = p.type_()
    if p.peek() is not None:
        p.err("trailing input after axiom")
    for t in (lhs, rhs):
        syntax.check_admissible(t, calculus)
    return Axiom(f"ax{idx + 1}", (ctx,), lhs, rhs, ty)


def _validate_theory(sig: Signature):
    from .typecheck import check  # local import: typecheck depends on signatures

    theory = sig.theory
    calculus = theory.calculus
    for decl in theory.ops.values():
        ok_result = decl.result.kind in ("tt", "tgr", "base", "jt", "unit1")
        if not ok_result:
            raise SignatureError(
                f"operation {decl.name}: result must be a computation or base type,"
                f" got {decl.result}")
    for ax in theory.axioms:
        for side, t in (("left", ax.lhs), ("right", ax.rhs)):
            j = syntax.Judgement(calculus, ax.form, ax.zones, t, ax.ty)
            res = check(j, sig)
            if not res.ok:
                raise SignatureError(
                    f"axiom {ax.name}: {side} side does not type-check: {res.message}")
