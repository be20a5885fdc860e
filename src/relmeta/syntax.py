"""Abstract syntax shared by the six calculi.

Terms use a locally nameless representation: bound variables are de Bruijn
indices (`bvar`), free variables are names (`var`).  Binder nodes carry name
hints that are excluded from equality, so alpha-equivalence is plain
structural equality of terms and substitution of a term for a free name can
never capture.

One Term/TypeExpr datatype serves every calculus; a calculus tag plus the
term-former table below say which terms a given language may use, and
FORMS gives each calculus's judgement forms and the kind of each of their
zones.  Which types a zone kind admits is the checker's table.

Types are hash-consed: each type structure is one `TypeExpr` object, kept
in a module table, so `==` and `hash` on types are identity's.  Every way
of building a type reaches the table: `TypeExpr(...)` and the constructors
below, `parse_type` (and so a loaded signature and a rule schema's type
metavariable), and `pickle`, `copy`, `deepcopy` and `dataclasses.replace`,
through `TypeExpr.__reduce__`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields
from operator import is_

CALCULI = ("urmm", "rmm", "gmm", "lnl", "arrow", "armm")


class SyntaxError_(Exception):
    """Parse or well-formedness error, with best-effort position info."""

    def __init__(self, msg, line=None, col=None):
        self.msg, self.line, self.col = msg, line, col
        if col is not None:
            msg = f"{line}:{col}: {msg}"
        elif line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Grades


@dataclass(frozen=True)
class Grade:
    """A grading-category object.

    Either a natural (built-in gradings), a name (presented gradings), or a
    formal tensor of grades.  The tensor form is kept syntactic so that
    `unmerge` can read a factorization off the type; grade equality is
    decided after normalizing tensors through the grading.
    """

    kind: str  # "nat" | "name" | "tensor"
    nat: int | None = None
    name: str | None = None
    subs: tuple["Grade", ...] = ()

    def __str__(self):
        if self.kind == "nat":
            return str(self.nat)
        if self.kind == "name":
            return self.name
        return f"{_gatom(self.subs[0])} * {_gatom(self.subs[1])}"


def _gatom(g: "Grade") -> str:
    return f"({g})" if g.kind == "tensor" else str(g)


def gnat(n: int) -> Grade:
    return Grade("nat", nat=n)


def gname(s: str) -> Grade:
    return Grade("name", name=s)


def gtensor(m: Grade, n: Grade) -> Grade:
    return Grade("tensor", subs=(m, n))


@dataclass(frozen=True)
class GradeMor:
    """A grading-category morphism src -> tgt.

    For the built-in thin gradings the morphism is determined by its
    endpoints (`word` is None and validity means src >= tgt); for presented
    gradings `word` is a composition word of declared generators.
    """

    src: Grade
    tgt: Grade
    word: tuple[str, ...] | None = None

    def __str__(self):
        if self.word is None:
            return f"{self.src}>={self.tgt}"
        return ";".join(self.word) if self.word else f"id_{self.src}"


# ---------------------------------------------------------------------------
# Types

# kind -> number of TypeExpr children
_TYPE_KINDS = {
    "unit1": 0,   # Cartesian unit 1
    "lunit": 0,   # linear unit I
    "base": 0,    # named base type / signature object
    "prod": 2,    # X * Y  (Cartesian product, or tensor in a linear zone)
    "fun": 2,     # A -> B
    "lolli": 2,   # X -o Y
    "arr": 2,     # A ~> B   (arrow-calculus arrow type)
    "aabs": 2,    # A => X   (abstraction type of the three-zone calculus)
    "jt": 1,      # J(A)
    "kt": 1,      # K(A)
    "tt": 1,      # T(A)
    "tgr": 1,     # T_m(A)
    "grty": 0,    # gr(m)
    "rt": 1,      # R(X)
    "meta": 0,    # a rewrite-rule schema's type metavariable, by name
}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TypeExpr:
    """A type, hash-consed: each structure is one object, kept in `_TYPES`,
    so `==` and `hash` are identity's."""

    kind: str
    subs: tuple["TypeExpr", ...] = ()
    name: str | None = None
    grade: Grade | None = None

    def __new__(cls, kind, subs=(), name=None, grade=None):
        # the subs are the table's objects already, compared by identity
        key = (kind, name, grade, subs)
        ty = _TYPES.get(key)
        if ty is None:
            assert kind in _TYPE_KINDS, kind
            assert len(subs) == _TYPE_KINDS[kind], (kind, subs)
            ty = _TYPES[key] = object.__new__(cls)
            for slot, value in zip(_TYPE_SLOTS, (kind, subs, name, grade)):
                slot.__set__(ty, value)
        return ty

    def __reduce__(self):
        # pickle, copy and `dataclasses.replace` land on the table's object
        return TypeExpr, (self.kind, self.subs, self.name, self.grade)

    def __str__(self):
        return type_to_text(self)


_TYPES = {}  # (kind, name, grade, subs) -> the one TypeExpr
_TYPE_SLOTS = (TypeExpr.kind, TypeExpr.subs, TypeExpr.name, TypeExpr.grade)
UNIT1 = TypeExpr("unit1")
LUNIT = TypeExpr("lunit")


def base(name) -> TypeExpr:
    return TypeExpr("base", name=str(name))


def prod(x, y) -> TypeExpr:
    return TypeExpr("prod", (x, y))


def fun(a, b) -> TypeExpr:
    return TypeExpr("fun", (a, b))


def lolli(x, y) -> TypeExpr:
    return TypeExpr("lolli", (x, y))


def arr(a, b) -> TypeExpr:
    return TypeExpr("arr", (a, b))


def aabs(a, x) -> TypeExpr:
    return TypeExpr("aabs", (a, x))


def jt(a) -> TypeExpr:
    return TypeExpr("jt", (a,))


def kt(a) -> TypeExpr:
    return TypeExpr("kt", (a,))


def tt(a) -> TypeExpr:
    return TypeExpr("tt", (a,))


def tgr(m: Grade, a) -> TypeExpr:
    return TypeExpr("tgr", (a,), grade=m)


def grty(m: Grade) -> TypeExpr:
    return TypeExpr("grty", grade=m)


def rt(x) -> TypeExpr:
    return TypeExpr("rt", (x,))


# ---------------------------------------------------------------------------
# Terms

# kind -> (n_children, binders-per-child); an operation takes any number
# of arguments and binds nothing
_TERM_KINDS = {
    "var": (0, ()),       # free variable, name
    "bvar": (0, ()),      # bound variable, de Bruijn index
    "unit": (0, ()),      # ()
    "pair": (2, (0, 0)),
    "pi1": (1, (0,)),
    "pi2": (1, (0,)),
    "gen": (1, (0,)),     # base-category morphism applied to a J-term
    "opapp": (-1, ()),    # effect operation applied to its arguments
    "ret": (1, (0,)),
    "do": (2, (0, 1)),    # do x <- t0 in t1
    "lam": (1, (1,)),     # lam (x:X). t   (Cartesian or linear, by zone)
    "lamarrow": (1, (1,)),  # lamarrow (x:A). t   (arrow abstraction)
    "app": (2, (0, 0)),
    "aapp": (2, (0, 0)),  # u . v   (arrow application)
    "letunit": (2, (0, 0)),
    "letpair": (2, (0, 2)),  # let (x,y) = t0 in t1; x is bvar 1, y is bvar 0
    "letj": (2, (0, 1)),
    "letk": (2, (0, 1)),
    "jterm": (1, (0,)),
    "kterm": (1, (0,)),
    "rterm": (1, (0,)),
    "derelict": (1, (0,)),
    "merge": (1, (0,)),
    "unmerge": (1, (0,)),
    "regrade": (1, (0,)),  # regrade<xi> t
    "meta": (-1, ()),     # a rule schema's metavariable applied to binders
}

# kind -> the number of binders each child is under, () where none is
BINDERS = {k: b if any(b) else () for k, (_, b) in _TERM_KINDS.items()}


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """A term.  It keeps two fields filled from its children's on first
    request (`_fill`): its structural hash, which leaves out `hints` as
    `==` does, and its occurrences (`occ`).  Its constructor sets the
    slots through their descriptors, past the frozen `__setattr__`."""

    kind: str
    subs: tuple["Term", ...] = ()
    name: str | None = None          # var name, gen/op symbol
    index: int | None = None         # bvar index
    xi: GradeMor | None = None       # regrade payload
    tyann: TypeExpr | None = None    # lam / lamarrow annotation
    hints: tuple[str, ...] = field(default=(), compare=False)
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)
    _occ: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __init__(self, kind, subs=(), name=None, index=None, xi=None,
                 tyann=None, hints=()):
        assert kind in _TERM_KINDS and \
            _TERM_KINDS[kind][0] in (-1, len(subs)), (kind, subs)
        _set_kind(self, kind)
        _set_subs(self, subs)
        _set_name(self, name)
        _set_index(self, index)
        _set_xi(self, xi)
        _set_tyann(self, tyann)
        _set_hints(self, hints)
        _set_hash(self, None)
        _set_occ(self, None)

    def __hash__(self):
        h = self._hash
        return _fill(self)._hash if h is None else h

    def __eq__(self, other):
        """Structural equality, `hints` aside, from explicit stacks."""
        if type(other) is not Term:
            return NotImplemented
        xs, ys = [self], [other]
        while xs:
            a, b = xs.pop(), ys.pop()
            if a is not b:
                ha, hb = a._hash, b._hash
                if a.kind != b.kind or len(a.subs) != len(b.subs) or \
                        ha != hb and ha is not None and hb is not None or \
                        a.name != b.name or a.index != b.index or \
                        a.xi != b.xi or a.tyann != b.tyann:
                    return False
                xs += a.subs
                ys += b.subs
        return True

    @property
    def occ(self) -> tuple:
        """(free names, dangling bvars): the bvars as a bit mask, bit k set
        when bvar k, counted from this node, dangles."""
        return (self if self._hash is not None else _fill(self))._occ

    def __reduce__(self):
        # the kept fields are left out: a str's hash is salted per process
        return Term, (self.kind, self.subs, self.name, self.index, self.xi,
                      self.tyann, self.hints)

    def __str__(self):
        return term_to_text(self)


_EMPTY = frozenset()
_CLOSED = (_EMPTY, 0)
_LEAF_OCC = {}  # the occurrences of a var or bvar leaf, by name or index
# the setters of the slots, past the frozen `__setattr__`
_set_kind, _set_subs, _set_name, _set_index, _set_xi, _set_tyann, \
    _set_hints, _set_hash, _set_occ = (
        getattr(Term, f.name).__set__ for f in fields(Term))


_FILL_DEPTH = 32  # the levels `_fill` recurses through before `_fill_deep`


def _fill(t: Term, depth: int = _FILL_DEPTH) -> Term:
    """t, its hash and occurrences filled from its children's, and those of
    every subterm that lacks them, children first: recursively for `depth`
    levels and from `_fill_deep`'s explicit stack below them, so a term of
    any depth is filled.  A subterm shared several ways is filled at one of
    its occurrences and skipped at the others."""
    subs, kind = t.subs, t.kind
    if not subs:
        key = t.name if kind == "var" else t.index
        occ = _LEAF_OCC.get(key) if kind in ("var", "bvar") else _CLOSED
        if occ is None:
            occ = _LEAF_OCC[key] = (frozenset((key,)), 0) \
                if kind == "var" else (_EMPTY, 1 << key)
        h = hash((kind, t.name, t.index, t.xi, t.tyann))
    else:
        for s in subs:
            if s._hash is None:
                _fill(s, depth - 1) if depth else _fill_deep(s)
        if len(subs) == 1 and not BINDERS[kind]:
            s = subs[0]
            occ = s._occ
            h = hash((kind, t.name, t.index, t.xi, t.tyann, s._hash))
        else:
            binders, names, mask = BINDERS[kind], _EMPTY, 0
            for i, s in enumerate(subs):
                n, b = s._occ
                mask |= b >> binders[i] if binders else b
                if n and n is not names:
                    names = names | n if names else n
            occ = (names, mask)
            h = hash((kind, t.name, t.index, t.xi, t.tyann,
                      *[s._hash for s in subs]))
    _set_occ(t, occ)  # before the hash, which marks the node filled
    _set_hash(t, h)
    return t


def _fill_deep(t: Term):
    """`_fill` for a term below its recursion, from an explicit stack: a
    node with children goes back on the stack under them, holding this
    call's mark where its occurrences go (only a filled hash makes those
    current), and is filled, not recursing, once they are."""
    stack, mark = [t], object()
    while stack:
        u = stack.pop()
        if u._hash is not None:
            continue
        if u.subs and u._occ is not mark:
            _set_occ(u, mark)
            stack.append(u)
            stack += [s for s in u.subs if s._hash is None]
        else:
            _fill(u, 0)


def var(x: str) -> Term:
    return Term("var", name=x)


def bv(k: int) -> Term:
    return Term("bvar", index=k)


UNIT = Term("unit")


def pair(u, t) -> Term:
    return Term("pair", (u, t))


def pi1(u) -> Term:
    return Term("pi1", (u,))


def pi2(u) -> Term:
    return Term("pi2", (u,))


def gen(f: str, u) -> Term:
    return Term("gen", (u,), name=f)


def opapp(op: str, *args) -> Term:
    return Term("opapp", tuple(args), name=op)


def ret(u) -> Term:
    return Term("ret", (u,))


def do(u, t, hint="x") -> Term:
    return Term("do", (u, t), hints=(hint,))


def lam(ty: TypeExpr, t, hint="x") -> Term:
    return Term("lam", (t,), tyann=ty, hints=(hint,))


def lamarrow(ty: TypeExpr | None, t, hint="x") -> Term:
    return Term("lamarrow", (t,), tyann=ty, hints=(hint,))


def app(u, v) -> Term:
    return Term("app", (u, v))


def aapp(u, v) -> Term:
    return Term("aapp", (u, v))


def letunit(t, s) -> Term:
    return Term("letunit", (t, s))


def letpair(t, s, hx="x", hy="y") -> Term:
    return Term("letpair", (t, s), hints=(hx, hy))


def letj(t, s, hint="a") -> Term:
    return Term("letj", (t, s), hints=(hint,))


def letk(t, s, hint="a") -> Term:
    return Term("letk", (t, s), hints=(hint,))


def jterm(u) -> Term:
    return Term("jterm", (u,))


def kterm(u) -> Term:
    return Term("kterm", (u,))


def rterm(t) -> Term:
    return Term("rterm", (t,))


def derelict(u) -> Term:
    return Term("derelict", (u,))


def merge(t) -> Term:
    return Term("merge", (t,))


def unmerge(t) -> Term:
    return Term("unmerge", (t,))


def regrade(xi: GradeMor, t) -> Term:
    return Term("regrade", (t,), xi=xi)


def with_subs(t: Term, subs) -> Term:
    return Term(t.kind, tuple(subs), name=t.name, index=t.index, xi=t.xi,
                tyann=t.tyann, hints=t.hints)


# ---------------------------------------------------------------------------
# Traversals

def child_binders(t: Term, i: int) -> int:
    """The number of binders t puts its i-th child under."""
    spec = BINDERS[t.kind]
    return spec[i] if spec else 0


def rebind(t: Term, outer: list, depth: int, e: int = 0) -> Term:
    """t, under e of its own binders, with the binders just outside it
    replaced: a bvar pointing to the j-th of them by outer[j], a term under
    `depth` binders (t points to none whose outer[j] is None), and one
    pointing m binders past them by one pointing m past the `depth`
    binders.  Nodes that do not change are kept, and a subterm with no
    bvar dangling at or past its cutoff is kept without a walk."""
    if not t.occ[1] >> e:
        return t
    if t.kind == "bvar":
        j = t.index - e
        if j >= len(outer):
            return bv(j - len(outer) + depth + e)
        return shift(outer[j], e) if e else outer[j]
    binders = BINDERS[t.kind]
    subs = [rebind(s, outer, depth, e + binders[i] if binders else e)
            for i, s in enumerate(t.subs)]
    return t if all(map(is_, subs, t.subs)) else with_subs(t, subs)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free de Bruijn indices >= cutoff by `by`."""
    return rebind(t, [], by, cutoff)


def bsubst(t: Term, j: int, u: Term) -> Term:
    """Substitute `u` for bvar j in t, lowering indices above j."""
    return rebind(t, [u], 0, j)


def close_binder(body: Term, name: str) -> Term:
    """Abstract the free name as bvar 0: the inverse of
    `bsubst(body, 0, var(name))`."""

    def go(t, depth):
        if t.kind == "var" and t.name == name:
            return bv(depth)
        if t.kind == "bvar" and t.index >= depth:
            return bv(t.index + 1)
        if not t.subs:
            return t
        return with_subs(t, (go(s, depth + child_binders(t, i))
                             for i, s in enumerate(t.subs)))

    return go(body, 0)


def free_vars(t: Term, names=(), binders=0) -> frozenset:
    """The free names of t.  `names` names the binders in force around t,
    innermost last, and t sits under `binders` more, unnamed: the names its
    dangling bvars refer to past those are free in t too."""
    fv, mask = t.occ
    mask = mask >> binders & ((1 << len(names)) - 1)
    return fv.union([names[-1 - k] for k in range(mask.bit_length())
                     if mask >> k & 1]) if mask else fv


def uses_bvar(t: Term, j: int = 0) -> bool:
    return bool(t.occ[1] >> j & 1)


def term_size(t: Term) -> int:
    return 1 + sum(term_size(s) for s in t.subs)


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = t.subs[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    spine = []  # the nodes on the path, rebuilt innermost first
    for i in path:
        spine.append(t)
        t = t.subs[i]
    for i in reversed(path):
        t = spine.pop()
        new = with_subs(t, t.subs[:i] + (new,) + t.subs[i + 1:])
    return new


def positions(t: Term, prefix=()) -> list:
    out = [prefix]
    for i, s in enumerate(t.subs):
        out.extend(positions(s, prefix + (i,)))
    return out


def alpha_eq(t: Term, u: Term) -> bool:
    """Alpha-equivalence: structural equality of the canonical forms."""
    return t == u


def term_key(t: Term):
    """A total order key on terms, used to orient symmetric exchanges."""
    head = (t.kind, t.name or "", t.index if t.index is not None else -1,
            str(t.xi) if t.xi else "", str(t.tyann) if t.tyann else "")
    return (head, tuple(term_key(s) for s in t.subs))


# ---------------------------------------------------------------------------
# Admissibility

_TERMS_BY_CALC = {
    "urmm": {"var", "bvar", "gen", "ret", "do", "opapp", "unit"},
    "rmm": {"var", "bvar", "unit", "pair", "pi1", "pi2", "gen", "ret", "do",
            "opapp"},
    "gmm": {"var", "bvar", "unit", "pair", "pi1", "pi2", "ret", "do",
            "regrade", "opapp"},
    "lnl": {"var", "bvar", "unit", "pair", "pi1", "pi2", "lam", "app",
            "letunit", "letpair", "ret", "do", "regrade", "merge", "unmerge",
            "jterm", "letj", "rterm", "derelict", "opapp"},
    "arrow": {"var", "bvar", "unit", "pair", "pi1", "pi2", "lam", "app",
              "lamarrow", "aapp", "ret", "do", "opapp"},
    "armm": {"var", "bvar", "unit", "pair", "pi1", "pi2", "lamarrow", "app",
             "aapp", "jterm", "kterm", "letj", "letk", "ret", "do", "opapp"},
}


def admissible_term_kinds(calculus: str) -> set:
    return _TERMS_BY_CALC[calculus]


def check_admissible(t: Term, calculus: str):
    """Reject the first term former, in preorder, that the calculus lacks."""
    ok = _TERMS_BY_CALC[calculus]
    todo = [t]
    while todo:
        t = todo.pop()
        if t.kind not in ok:
            raise SyntaxError_(
                f"term former '{t.kind}' is not part of {calculus}")
        todo.extend(reversed(t.subs))


# ---------------------------------------------------------------------------
# Judgements

# The judgement forms: (calculus, form) -> the kind of each context zone,
# "A" for a Cartesian zone and "C" for the linear zone of lnl or the third
# zone of armm.  The last kind also types the result.
FORMS = {
    ("urmm", "A"): "A", ("rmm", "A"): "A", ("gmm", "A"): "A",
    ("lnl", "A"): "A", ("lnl", "C"): "AC",
    ("arrow", "A"): "A", ("arrow", "C"): "AA",
    ("armm", "A"): "A", ("armm", "C"): "AAC",
}


def default_form(calculus: str) -> str:
    """The form a judgement takes when none is written: C where the
    calculus has one."""
    return "C" if (calculus, "C") in FORMS else "A"


Context = tuple  # tuple[tuple[str, TypeExpr], ...]


@dataclass(frozen=True)
class Judgement:
    """A calculus-tagged judgement: context zones |- term : type.

    `form` is "A" for ordinary term judgements and "C" for the second
    judgement family of the two-sorted calculi (the linear judgement of the
    LNL language, the command judgement of the arrow calculus, the
    three-zone judgement of the arrow metalanguage).
    """

    calculus: str
    form: str
    zones: tuple[Context, ...]
    term: Term
    ty: TypeExpr

    def __post_init__(self):
        kinds = FORMS.get((self.calculus, self.form))
        if kinds is None:
            raise SyntaxError_(
                f"judgement form {self.form!r} does not exist in {self.calculus}")
        if len(self.zones) != len(kinds):
            raise SyntaxError_(
                f"{self.calculus}/{self.form} judgements take {len(kinds)}"
                f" context zone(s), got {len(self.zones)}")
        seen = set()
        for zone in self.zones:
            for name, _ in zone:
                if name in seen:
                    raise SyntaxError_(f"duplicate context variable {name!r}")
                seen.add(name)

    def with_term(self, term: Term) -> "Judgement":
        """This judgement's shape with another term, a plain judgement; the
        shape is not validated again: it is this judgement's, which was."""
        j = object.__new__(Judgement)
        j.__dict__.update(calculus=self.calculus, form=self.form,
                          zones=self.zones, term=term, ty=self.ty)
        return j

    def __str__(self):
        return self.text()

    def text(self, names=()) -> str:
        """The judgement as printed; `names` names the binders around its
        term, as `term_to_text` takes them.  `self` may be any record of a
        judgement's fields, as a `typecheck.Derivation` node is."""
        zs = " ; ".join(
            ", ".join(f"{x} : {type_to_text(ty)}" for x, ty in zone) or "-"
            for zone in self.zones)
        bang = " !" if (self.calculus, self.form) == ("arrow", "C") else " :"
        return f"[{self.calculus}/{self.form}] {zs} |-{bang} " \
               f"{term_to_text(self.term, names)} : {type_to_text(self.ty)}"


def judgement(calculus, zones, term, ty, form=None) -> Judgement:
    if form is None:
        form = default_form(calculus)
    return Judgement(calculus, form, tuple(tuple(z) for z in zones), term, ty)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN = r"=>|->|-o|~>|<-|>=|[(),.:;<>*=\[\]{}]|[A-Za-z_][A-Za-z0-9_']*|[0-9]+"
# one token after the whitespace and comments before it, or the end of the
# text after them
_TOKEN_RE = re.compile(rf"\s*(?:\#[^\n]*\s*)*({_TOKEN}|\Z)")
# the longest prefix made of tokens, whitespace and comments
_TEXT_RE = re.compile(rf"(?:\s|\#[^\n]*|{_TOKEN})*")

KEYWORDS = {"do", "in", "let", "lam", "lamarrow", "app", "ret", "pi1", "pi2",
            "derelict", "merge", "unmerge", "regrade", "J", "K", "R", "T",
            "gr", "I"}


def tokenize(text: str) -> list:
    """The token values of `text`, followed by None for its end.

    One regex match checks that the text is made of tokens, whitespace and
    `#` comments, and one regex scan returns the tokens, skipping the rest.
    Neither tracks lines: `_line_col` finds a position again only when a
    SyntaxError_ needs it."""
    end = _TEXT_RE.match(text).end()
    if end < len(text):
        raise SyntaxError_(f"unexpected character {text[end]!r}",
                           *_line_col(text, end))
    toks = _TOKEN_RE.findall(text)
    k = toks.index("")  # the end of the text, matched once or twice
    del toks[k + 1:]
    toks[k] = None
    return toks


def _line_col(text: str, pos: int) -> tuple:
    """The 1-based line and column of offset `pos` of `text`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _P:
    """Recursive-descent parser over the tokens of a text.

    A bound name is resolved to its de Bruijn index as it is read, from the
    binders in force (`scope`: name -> the depths that bind it, innermost
    last), so a term is built once, in time linear in the text.  An
    operation or generator name is never a variable, bound or free.  A
    do/let/lam/lamarrow spine and a chain of prefix formers are each read
    in a loop, so their length costs no Python frames; parentheses and a
    term nested in a spine's head (a `do` in a scrutinee) still recurse.

    With `schema`, the text is a side of a rule schema (`rules.py`): a
    free name is a metavariable, `t` or `t[x, y]` (a `meta` node over its
    arguments), and a binder's annotation a type metavariable's name."""

    def __init__(self, text, sig=None, calculus="rmm", schema=False):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.sig = sig
        self.calculus = calculus
        self.schema = schema
        self.scope = {}
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def peek2(self):
        return self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None

    def next(self):
        """The next token; None, without advancing, at the end."""
        t = self.toks[self.i]
        if t is not None:
            self.i += 1
        return t

    def expect(self, tok):
        got = self.toks[self.i]
        if got != tok:
            self.err(f"expected {tok!r}, found {got!r}")
        self.i += 1

    def err(self, msg):
        """Raise msg at the current token, found again in the text (at the
        end, for the -1 that `atom` steps back to from an empty text)."""
        i = self.i % len(self.toks)
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None))
        raise SyntaxError_(msg, *_line_col(self.text, m.start(1)))

    def end(self):
        """Reject input left after what was parsed."""
        if self.peek() is not None:
            self.err(f"trailing input starting at {self.peek()!r}")

    def context(self) -> Context:
        """`x : T, y : U`: one entry or more."""
        out = []
        while True:
            x = self.name()
            self.expect(":")
            out.append((x, self.type_()))
            if self.peek() != ",":
                return tuple(out)
            self.next()

    def name(self):
        """A variable name, as a binder or a context entry declares it."""
        tok = self.peek()
        if tok is None or not (tok[0].isalpha() or tok[0] == "_") or \
                tok in KEYWORDS:
            self.err(f"expected a variable name, found {tok!r}")
        return self.next()

    # -- the binders in force -------------------------------------------

    def bind(self, names):
        """Put a binder's names in force; the last is bvar 0.  Of two equal
        names in one pattern the first wins, as closing the body over
        each name in turn made it."""
        d = self.depth
        for k in range(len(names) - 1, -1, -1):
            self.scope.setdefault(names[k], []).append(d + k)
        self.depth = d + len(names)

    def unbind(self, names):
        for x in names:
            self.scope[x].pop()
        self.depth -= len(names)

    # -- helpers over the signature ------------------------------------

    def is_gen(self, name):
        return self.sig is not None and self.sig.has_generator(name)

    def is_op(self, name):
        return self.sig is not None and self.sig.has_op(name)

    # -- grades ---------------------------------------------------------

    def grade(self) -> Grade:
        left = self.grade_atom()
        while self.peek() == "*":
            self.next()
            left = gtensor(left, self.grade_atom())
        return left

    def grade_atom(self) -> Grade:
        tok = self.next()
        if tok is None:
            self.err("expected a grade")
        if tok == "(":
            g = self.grade()
            self.expect(")")
            return g
        if tok.isdigit():
            return gnat(int(tok))
        return gname(tok)

    def grade_mor(self) -> GradeMor:
        save = self.i
        first = self.grade()
        if self.peek() == ">=":
            self.next()
            second = self.grade()
            return GradeMor(first, second)
        # a presented grading's generator word g;f, or identity id_m
        self.i = save
        word = [self.next()]
        while self.peek() == ";":
            self.next()
            word.append(self.next())
        if self.sig is None or self.sig.grading is None:
            self.err("grade morphism word needs a presented grading in scope")
        return self.sig.grading.word_mor(tuple(word))

    # -- types ----------------------------------------------------------

    def type_(self) -> TypeExpr:
        left = self.type_prod()
        tok = self.peek()
        if tok in ("->", "-o", "=>", "~>"):
            self.next()
            right = self.type_()
            kind = {"->": fun, "-o": lolli, "=>": aabs, "~>": arr}[tok]
            return kind(left, right)
        return left

    def type_prod(self) -> TypeExpr:
        left = self.type_atom()
        while self.peek() == "*":
            self.next()
            left = prod(left, self.type_atom())
        return left

    def type_atom(self) -> TypeExpr:
        tok = self.next()
        if tok == "1":
            return UNIT1
        if tok == "I":
            return LUNIT
        if tok == "(":
            ty = self.type_()
            self.expect(")")
            return ty
        if tok in ("J", "K", "T", "R"):
            self.expect("(")
            inner = self.type_()
            self.expect(")")
            return {"J": jt, "K": kt, "T": tt, "R": rt}[tok](inner)
        if tok == "gr":
            self.expect("(")
            g = self.grade()
            self.expect(")")
            return grty(g)
        if tok == "T_":
            self.expect("(")
            grade = self.grade()
            self.expect(")")
            self.expect("(")
            inner = self.type_()
            self.expect(")")
            return tgr(grade, inner)
        if tok is not None and tok.startswith("T_"):
            g = tok[2:]
            grade = gnat(int(g)) if g.isdigit() else gname(g)
            self.expect("(")
            inner = self.type_()
            self.expect(")")
            return tgr(grade, inner)
        if tok is not None and (tok[0].isalpha() or tok[0] == "_" or tok.isdigit()):
            return base(tok)
        self.err(f"expected a type, found {tok!r}")

    # -- terms ----------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        spine = []  # (kind, subs before the body, tyann, binder names)
        while True:
            if tok == "do":
                self.next()
                x = self.name()
                self.expect("<-")
                u = self.term()
                self.expect("in")
                spine.append(("do", (u,), None, (x,)))
            elif tok == "let":
                spine.append(self.let_())
            elif tok in ("lam", "lamarrow"):
                self.next()
                if tok == "lam" or self.peek() == "(":
                    self.expect("(")
                    x = self.name()
                    self.expect(":")
                    ty = TypeExpr("meta", name=self.name()) if self.schema \
                        else self.type_()
                    self.expect(")")
                else:
                    x, ty = self.name(), None
                self.expect(".")
                spine.append((tok, (), ty, (x,)))
            else:
                break
            self.bind(spine[-1][3])
            tok = self.peek()
        if tok == "app":
            self.next()
            u = self.dotterm()
            t = app(u, self.dotterm())
        else:
            t = self.dotterm()
        for kind, subs, ty, names in reversed(spine):
            self.unbind(names)
            t = Term(kind, (*subs, t), tyann=ty, hints=names)
        return t

    def let_(self) -> tuple:
        """`let <pattern> = t in`, as a spine entry of term."""
        self.expect("let")
        tok = self.next()
        if tok == "(":
            if self.peek() == ")":
                self.next()
                self.expect("=")
                t = self.term()
                self.expect("in")
                return "letunit", (t,), None, ()
            x = self.name()
            self.expect(",")
            y = self.name()
            self.expect(")")
            self.expect("=")
            t = self.term()
            self.expect("in")
            return "letpair", (t,), None, (x, y)
        if tok in ("J", "K"):
            self.expect("(")
            a = self.name()
            self.expect(")")
            self.expect("=")
            t = self.term()
            self.expect("in")
            return ("letj" if tok == "J" else "letk"), (t,), None, (a,)
        self.err("expected a let pattern: (), (x,y), J(a), or K(a)")

    def dotterm(self) -> Term:
        left = self.prefixterm()
        while self.peek() == ".":
            self.next()
            left = aapp(left, self.prefixterm())
        return left

    def prefixterm(self) -> Term:
        """A chain of prefix formers (`ret`, `pi1`, `regrade<xi>`, a
        generator, ...) over a J/K/R term or an atom, read in a loop and
        built from the inside out, so its length costs no Python frames."""
        chain = []  # (kind, name, xi) of each prefix former, outermost first
        while True:
            tok = self.peek()
            if tok in ("ret", "pi1", "pi2", "derelict", "merge", "unmerge"):
                self.next()
                chain.append((tok, None, None))
            elif tok == "regrade":
                self.next()
                self.expect("<")
                xi = self.grade_mor()
                self.expect(">")
                chain.append(("regrade", None, xi))
            elif tok is not None and tok not in KEYWORDS and \
                    self.is_gen(tok) and tok[0].isalpha():
                self.next()
                chain.append(("gen", tok, None))
            else:
                break
        if tok in ("J", "K", "R") and self.peek2() == "(":
            self.next()
            self.next()
            inner = self.term()
            self.expect(")")
            t = {"J": jterm, "K": kterm, "R": rterm}[tok](inner)
        else:
            t = self.atom()
        for kind, name, xi in reversed(chain):
            t = Term(kind, (t,), name=name, xi=xi)
        return t

    def terms(self, open_, close) -> list:
        """`open_ t, ..., t close`: one term or more."""
        self.expect(open_)
        out = [self.term()]
        while self.peek() == ",":
            self.next()
            out.append(self.term())
        self.expect(close)
        return out

    def atom(self) -> Term:
        tok = self.next()
        if tok == "(":
            if self.peek() == ")":
                self.next()
                return UNIT
            t = self.term()
            if self.peek() == ",":
                self.next()
                s = self.term()
                self.expect(")")
                return pair(t, s)
            self.expect(")")
            return t
        if tok is None or not (tok[0].isalpha() or tok[0] == "_"):
            self.i -= 1
            self.err(f"expected a term, found {tok!r}")
        if tok in KEYWORDS:
            self.i -= 1
            self.err(f"keyword {tok!r} cannot be used as a variable")
        if self.is_op(tok):
            arity = self.sig.op_arity(tok)
            if arity == 0:
                return opapp(tok)
            args = self.terms("(", ")")
            if len(args) != arity:
                self.err(f"operation {tok} expects {arity} argument(s),"
                         f" got {len(args)}")
            return opapp(tok, *args)
        depths = self.scope.get(tok)
        if depths:
            return bv(self.depth - 1 - depths[-1])
        if not self.schema:
            return var(tok)
        args = self.terms("[", "]") if self.peek() == "[" else ()
        return Term("meta", tuple(args), name=tok)


def parse_term(text: str, calculus: str = "rmm", sig=None) -> Term:
    """Parse surface syntax into a locally nameless Term.

    Raises SyntaxError_ with line/column info on lex or grammar errors;
    also rejects term formers that the calculus does not admit.  Binders
    are resolved as they are read, so parsing takes time linear in the
    text, and a do/let/lam/lamarrow spine or a chain of prefix formers of
    any length parses under the default recursion limit (see `_P`).
    """
    p = _P(text, sig=sig, calculus=calculus)
    t = p.term()
    p.end()
    check_admissible(t, calculus)
    return t


def parse_type(text: str, sig=None) -> TypeExpr:
    p = _P(text, sig=sig)
    ty = p.type_()
    p.end()
    return ty


def parse_context(text: str, sig=None) -> Context:
    """Parse `x : T, y : U` (or `-` / empty for the empty context)."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    p = _P(text, sig=sig)
    out = p.context()
    p.end()
    return out


# ---------------------------------------------------------------------------
# Input files: signatures, model bindings, term and equation files, law
# instances and proofs share one line format, and a malformed line is a
# SyntaxError_ that names it.

def split_head(line: str) -> tuple:
    """A line's first word, empty on a blank line, and the rest, stripped."""
    words = line.strip().split(None, 1)
    return "".join(words[:1]), "".join(words[1:])


def read_lines(text: str):
    """(line number, head, rest) of each line of an input file, split by
    split_head: `#` starts a comment and blank lines are skipped."""
    for n, raw in enumerate(text.splitlines(), 1):
        head, rest = split_head(raw.split("#", 1)[0])
        if head:
            yield n, head, rest


def read_keys(text: str, single, multi=()) -> dict:
    """A keyed input file's lines by head: (line number, rest) for a head in
    `single`, a list of them for a head in `multi`.  A head in neither, or
    a single head given twice, is an error."""
    out, first = {}, {}
    for n, head, rest in read_lines(text):
        if head in single:
            once(first, head, n, head)
            out[head] = (n, rest)
        elif head in multi:
            out.setdefault(head, []).append((n, rest))
        else:
            raise SyntaxError_(f"unknown key {head!r}", n)
    return out


def once(first: dict, key, n: int, what: str):
    """Note that line n gives `key`, which it writes as `what`; a key that
    `first` holds the line of is given twice, an error naming both lines."""
    if key in first:
        raise SyntaxError_(f"repeats the `{what}` of line {first[key]}", n)
    first[key] = n


def split_entry(n: int, head: str, rest: str, *arity) -> tuple:
    """The keys and the value of line n, `head k1 ... kk = value` with k in
    `arity`."""
    lhs, eq, value = rest.partition("=")
    keys = tuple(lhs.split())
    if not eq or len(keys) not in arity or not value.strip():
        count = " or ".join(map(str, arity))
        raise SyntaxError_(f"expected `{head} <{count} key(s)> = <value>`", n)
    return keys, value.strip()


def split_entries(head: str, lines, *arity) -> dict:
    """The keys -> value table of the `head` lines, (line number, rest)
    each, read by split_entry; keys given twice are an error."""
    table, first = {}, {}
    for n, rest in lines:
        keys, value = split_entry(n, head, rest, *arity)
        once(first, keys, n, " ".join((head, *keys)))
        table[keys] = value
    return table


def calculus_of(kv: dict) -> str:
    """The calculus a keyed file's `calculus` line names, rmm without one."""
    n, calculus = kv.get("calculus", (None, "rmm"))
    if calculus not in CALCULI:
        raise SyntaxError_(f"unknown calculus {calculus!r}", n)
    return calculus


def on_line(n: int, text: str, parse, *args):
    """parse(text, *args) for the value text of line n of a file; a
    SyntaxError_ it raises is placed on that line, without a column."""
    try:
        return parse(text, *args)
    except SyntaxError_ as e:
        raise SyntaxError_(e.msg, n) from None


# ---------------------------------------------------------------------------
# Printing

def type_to_text(ty: TypeExpr) -> str:
    def atom(t):
        s = go(t)
        if t.kind in ("prod", "fun", "lolli", "arr", "aabs"):
            return f"({s})"
        return s

    def go(t):
        match t.kind:
            case "unit1":
                return "1"
            case "lunit":
                return "I"
            case "base":
                return t.name
            case "prod":
                return f"{atom(t.subs[0])} * {atom(t.subs[1])}"
            case "fun" | "lolli" | "arr" | "aabs":
                op = {"fun": "->", "lolli": "-o", "arr": "~>", "aabs": "=>"}[t.kind]
                lhs = atom(t.subs[0])
                rhs = go(t.subs[1]) if t.subs[1].kind in (
                    "fun", "lolli", "arr", "aabs") else atom(t.subs[1])
                return f"{lhs} {op} {rhs}"
            case "jt" | "kt" | "tt" | "rt":
                return f"{t.kind[0].upper()}({go(t.subs[0])})"
            case "tgr":
                g = t.grade
                if g.kind == "tensor":
                    return f"T_({g})({go(t.subs[0])})"
                return f"T_{g}({go(t.subs[0])})"
            case "grty":
                return f"gr({t.grade})"
        raise AssertionError(t.kind)

    return go(ty)


def _fresh(hint: str, avoid: set) -> str:
    if hint not in avoid:
        return hint
    k = 1
    while f"{hint}{k}" in avoid:
        k += 1
    return f"{hint}{k}"


# the formers whose last child is a body under their binders, printed in a
# loop by term_to_text
_SPINE = {"do", "lam", "lamarrow", "letunit", "letpair", "letj", "letk"}


def term_to_text(t: Term, names=()) -> str:
    """Pretty-print in the surface grammar; parse(print(t)) is alpha-equal.

    A bvar prints as the name of the binder it points to: one of t's, or,
    for a subterm, one of `names`, the binders around t (innermost last).
    Each binder of t prints as its hint, made fresh for the free names t
    refers to and the binders of t around it.  A do/let/lam/lamarrow spine
    is printed in a loop, so its length costs no Python frames."""
    avoid = set(free_vars(t, names))
    stack = list(names)

    def atom(t):
        # arguments of prefix operators may be prefix chains themselves
        s = go(t)
        if t.kind in ("var", "unit", "pair", "bvar", "jterm", "kterm",
                      "rterm", "opapp", "gen", "ret", "pi1", "pi2",
                      "derelict", "merge", "unmerge", "regrade"):
            return s
        return f"({s})"

    def fresh(t, i, default):
        x = _fresh(t.hints[i] if len(t.hints) > i else default, avoid)
        avoid.add(x)
        return x

    def spine(t):
        """A do/let/lam/lamarrow spine, its heads printed in a loop and its
        binders released after its body."""
        parts, bound = [], []
        while t.kind in _SPINE:
            match t.kind:
                case "do":
                    xs = (fresh(t, 0, "x"),)
                    parts.append(f"do {xs[0]} <- {go(t.subs[0])} in ")
                case "lam" | "lamarrow":
                    xs = (fresh(t, 0, "x"),)
                    if t.kind == "lamarrow" and t.tyann is None:
                        parts.append(f"lamarrow {xs[0]}. ")
                    else:
                        parts.append(f"{t.kind} ({xs[0]}:"
                                     f"{type_to_text(t.tyann)}). ")
                case "letunit":
                    xs = ()
                    parts.append(f"let () = {go(t.subs[0])} in ")
                case "letpair":
                    xs = (fresh(t, 0, "x"), fresh(t, 1, "y"))
                    parts.append(f"let ({xs[0]},{xs[1]}) = {go(t.subs[0])}"
                                 " in ")
                case "letj" | "letk":
                    xs = (fresh(t, 0, "a"),)
                    tag = "J" if t.kind == "letj" else "K"
                    parts.append(f"let {tag}({xs[0]}) = {go(t.subs[0])} in ")
            stack.extend(xs)
            bound.append(xs)
            t = t.subs[-1]
        parts.append(go(t))
        for xs in reversed(bound):
            if xs:
                del stack[-len(xs):]
                avoid.difference_update(xs)
        return "".join(parts)

    def go(t):
        match t.kind:
            case "var":
                return t.name
            case "bvar":
                if t.index < len(stack):
                    return stack[-1 - t.index]
                return f"?b{t.index - len(stack)}"  # only on open terms
            case "unit":
                return "()"
            case "pair":
                return f"({go(t.subs[0])}, {go(t.subs[1])})"
            case "pi1" | "pi2" | "ret" | "derelict" | "merge" | "unmerge":
                return f"{t.kind} {atom(t.subs[0])}"
            case "gen":
                return f"{t.name} {atom(t.subs[0])}"
            case "opapp":
                if not t.subs:
                    return t.name
                return f"{t.name}({', '.join(go(s) for s in t.subs)})"
            case "regrade":
                return f"regrade<{t.xi}> {atom(t.subs[0])}"
            case kind if kind in _SPINE:
                return spine(t)
            case "app":
                return f"app {atom(t.subs[0])} {atom(t.subs[1])}"
            case "aapp":
                lhs = atom(t.subs[0]) if t.subs[0].kind != "aapp" else go(t.subs[0])
                return f"{lhs} . {atom(t.subs[1])}"
            case "jterm" | "kterm" | "rterm":
                tag = {"jterm": "J", "kterm": "K", "rterm": "R"}[t.kind]
                return f"{tag}({go(t.subs[0])})"
        raise AssertionError(t.kind)

    return go(t)
