"""Judgement checking for all six calculi.

The checker is bidirectional (synthesis wherever the term determines its
type, checking against an expected type otherwise), syntax-directed, and
produces a full derivation tree on acceptance.  Linear contexts in the LNL
calculus use leftover-free splitting: each multiplicative node partitions
the available linear variables by free occurrence, which is the unique
valid split when one exists.  Free occurrences are cached on the term
(`syntax.Term.occ`, each subterm's free names and dangling bvars, filled
once bottom-up and kept), and the splits, the unused-variable tests and
the root's names to avoid read them there, so no check walks for them.

A judgement's form fixes the kind of each of its zones and of its result
(`syntax.FORMS`); which types a zone kind admits in a calculus is one
table, TYPE_FORMERS, that `validate_type` walks.

Each form has one synthesis function (`synth_a`, `synth_lnl_c`,
`synth_command`, `synth_armm_c`), and all four take (term, path, zones,
expected type), the zones being the judgement's tuple of zones, handed on
unchanged to a child whose zones are its parent's.  A function holds its
form's dispatch, variable lookup and own formers.  A rule that several
forms share is written once and takes the children's synthesis function:
pair, projection, `ret`, the ungraded `do`, `let J(a)`/`let K(a)`, `J(-)`/
`K(-)` and operation application; the caller gives the children's zones
where they are not the node's, and which zone a binder joins.

It reads the term as parsed: bvar i names the i-th binder from the top of
a stack of the binders in force, each named once, by its hint made fresh
for the root's names and those in force.  A zone is an ordered tuple of
(name, type) pairs; a binder extends it with `zone + ((x, ty),)`, and x is
fresh for every name in force, so names stay unique.  The derivation is the
one typing record: each node holds its judgement (zones, form, type, and
its term as it sits in the root term, bvars and all) and, at a binding
rule, the names it gave the binding child's binders.  Only the root
judgement is validated; the nodes' judgements are built from its zones
and fresh names, so they are valid by construction.  Every node of a scope
holds the same zone tuples, not copies of them.  Printing, replay and
`check_at` rebuild a node's names by walking from the root.  The rewrite
engine, the evaluator and the translations read the derivation.  A
`Checked` holds the derivation of its term, or, `renamed`, of a term `==`
it whose binders print other names.

Each node also reads its term's occurrences and holds the expected type
the checker was given there (the synthesis function pushes it, and the
node's `deriv` pops it), so that `check_at` can check a rewritten subterm
on its own and splice its derivation in.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from . import syntax
from .signatures import Signature, SignatureError
from .syntax import (Judgement, SyntaxError_, Term, TypeExpr, base, grty,
                     jt, prod, tgr, tt, type_to_text)


@dataclass
class Derivation:
    rule: str
    judgement: Judgement
    children: tuple = ()
    binders: tuple = ()  # names of the binding child's binders, in slot order
    expect: TypeExpr | None = None  # the expected type the checker was given

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def child_names(self, i, names):
        """The names of the binders in force at child i, given `names`, the
        binders in force at this node (innermost last)."""
        if syntax.child_binders(self.judgement.term, i):
            return names + self.binders
        return names


@dataclass
class CheckResult:  # a rejection; an acceptance is a `Checked`
    ok: bool
    message: str = ""
    path: tuple | None = None
    rule: str | None = None
    expected: str | None = None
    actual: str | None = None

    def __bool__(self):
        return self.ok


class Checked(Judgement):
    """An accepted judgement, equal to its plain judgement, with the object
    `sig` it was checked under and its `derivation`.  Only `check` and
    `check_at` make one, as only LCF's kernel makes theorems (Gordon,
    Milner & Wadsworth 1979); `with_term` and `replace` make plain ones."""

    ok = True  # read as a check's result, an acceptance

    def __init__(self, *args, **kwargs):
        raise TypeError("a Checked is made by a check alone")

    @property
    def __class__(self):  # what `==` and `dataclasses.replace` read
        return Judgement


def is_checked(j: Judgement, sig: Signature) -> bool:
    """Whether `check` made j under sig (the object): a copy is not one."""
    owner = vars(j).get("_owner")
    return owner is not None and owner() is j and j.sig is sig


def forget(j: Judgement):
    """Drop what a Checked's check found: a layer then checks it again."""
    for key in ("_owner", "sig", "derivation"):
        vars(j).pop(key, None)


class _Fail(Exception):
    def __init__(self, path, rule, message, expected=None, actual=None):
        self.path, self.rule, self.message = path, rule, message
        self.expected, self.actual = expected, actual
        super().__init__(message)


class LinearityError(_Fail):
    pass


# ---------------------------------------------------------------------------
# Type equality and validation

def types_equal(t1: TypeExpr, t2: TypeExpr, grading=None) -> bool:
    if t1.kind != t2.kind or t1.name != t2.name:
        return False
    if t1.grade is not None or t2.grade is not None:
        if grading is not None:
            if not grading.equal_grades(t1.grade, t2.grade):
                return False
        elif t1.grade != t2.grade:
            return False
    if len(t1.subs) != len(t2.subs):
        return False
    return all(types_equal(a, b, grading) for a, b in zip(t1.subs, t2.subs))


_UNARY = "unary calculus types are J(A) | T(A)"

# (calculus, zone kind) -> (each admissible type former -> the zone kind of
# each of its arguments, "O" for an object of the base category; the
# wording that rejects a former, by former, None for any other).  A
# calculus whose zones are all Cartesian has its "A" row only.
TYPE_FORMERS = {
    ("urmm", "A"): ({"jt": "O", "tt": "O"},
                    {None: "type former {} not admissible in urmm",
                     "unit1": _UNARY, "prod": _UNARY}),
    ("rmm", "A"): ({"unit1": "", "prod": "AA", "jt": "O", "tt": "O"},
                   {None: "type former {} not admissible in rmm"}),
    ("gmm", "A"): ({"unit1": "", "prod": "AA", "tgr": "A", "base": ""},
                   {None: "type former {} not admissible in gmm"}),
    ("lnl", "A"): ({"unit1": "", "prod": "AA", "fun": "AA", "rt": "C",
                    "base": ""},
                   {None: "type former {} not an A-zone type"}),
    ("lnl", "C"): ({"lunit": "", "grty": "", "prod": "CC", "lolli": "CC",
                    "jt": "A", "tt": "A"},
                   {None: "type former {} not a linear-zone type"}),
    ("arrow", "A"): ({"unit1": "", "prod": "AA", "fun": "AA", "arr": "AA",
                      "base": ""},
                     {None: "type former {} not admissible in the arrow"
                            " calculus"}),
    ("armm", "A"): ({"unit1": "", "prod": "AA", "aabs": "AC", "base": ""},
                    {None: "type former {} not an A-zone type"}),
    ("armm", "C"): ({"unit1": "", "prod": "CC", "jt": "A", "kt": "A",
                     "tt": "A"},
                    {None: "type former {} not a C-zone type"}),
}


def validate_type(ty: TypeExpr, calculus: str, zone: str, sig: Signature,
                  path=()):
    """Zone-discipline validation: which type formers may appear where, and
    whether named objects / grades are declared."""
    formers, reject = TYPE_FORMERS.get((calculus, zone)) or \
        TYPE_FORMERS[calculus, "A"]
    k = ty.kind
    args = formers.get(k)
    if args is None:
        msg = reject.get(k, reject[None]).format(k)
    elif k == "base" and not sig.has_object(ty.name):
        msg = f"base type {ty.name!r} is not a declared object"
    elif k in ("tgr", "grty") and sig.grading is None:
        msg = f"{'graded' if k == 'tgr' else 'grade'} types need a grading"
    elif k in ("tgr", "grty") and not sig.grading.has_object(ty.grade):
        msg = f"grade {ty.grade} not an object of the grading"
    else:
        for sub, z in zip(ty.subs, args):
            if z != "O":
                validate_type(sub, calculus, z, sig, path)
            # the terminal object may be written 1; other objects by name
            elif sub.kind != "unit1" and not (
                    sub.kind == "base" and sig.has_object(sub.name)):
                raise _Fail(path, "type", f"{type_to_text(ty)}: argument"
                            f" must be a declared object")
        return
    raise _Fail(path, "type", msg)


# ---------------------------------------------------------------------------
# Linear splitting

def split_linear(delta: tuple, t: Term, names=()) -> list[tuple]:
    """Partition the available linear zone among the children of t by
    free occurrence, each share a sub-zone in the zone's order.  The split
    is unique when it exists; duplicated use raises.  Unused variables are
    left unclaimed (callers decide where emptiness is required).  `names`
    names the binders in force at t, innermost last: a child's dangling
    bvar claims its binder's name, and the binders t itself gives a child
    are not in the zone yet."""
    claims = []
    for i, s in enumerate(t.subs):
        fv = syntax.free_vars(s, names, syntax.child_binders(t, i))
        claims.append(tuple((x, ty) for x, ty in delta if x in fv))
    seen = {}
    for i, c in enumerate(claims):
        for x, _ in c:
            if x in seen:
                raise LinearityError(
                    (), "linear-split",
                    f"linear variable {x!r} used in two subterms")
            seen[x] = i
    return claims


# ---------------------------------------------------------------------------
# The checker

_new = object.__new__


def _find(zone, x):
    """The type of x in a zone, or None if x is not in it."""
    for y, ty in zone:
        if y == x:
            return ty
    return None


def _part(expect, former, i=0):
    """Argument i of the expected type if its former is `former`, else
    None."""
    return expect.subs[i] if expect is not None and expect.kind == former \
        else None


def _extend(zs, z, x, ty):
    """The zones zs with (x, ty) appended to zone z."""
    return zs[:z] + (zs[z] + ((x, ty),),) + zs[z + 1:]


class _Checker:
    def __init__(self, sig: Signature, calculus: str, names=()):
        self.sig = sig
        self.calculus = calculus
        self.grading = sig.grading
        # the names of the binders in force, innermost last (bvar i is
        # names[-1 - i]); avoid is them plus the root judgement's names
        self.names = list(names)
        self.avoid = set(names)
        # the expected types of the nodes being checked, outermost first:
        # each synthesis function pushes its own, and its node's `deriv`
        # pops it
        self.expects = []

    # .. helpers ..........................................................

    def teq(self, t1, t2):
        return types_equal(t1, t2, self.grading)

    def fail(self, path, rule, msg, expected=None, actual=None):
        raise _Fail(path, rule, msg,
                    None if expected is None else type_to_text(expected),
                    None if actual is None else type_to_text(actual))

    def graded(self, path, rule):
        """The grading, which the rule needs: without one, the node is
        rejected."""
        if self.grading is None:
            self.fail(path, rule, f"{rule} needs a grading")
        return self.grading

    def gen_endpoints(self, name, path):
        try:
            g = self.sig.gen_decl(name)
        except SignatureError as e:
            raise _Fail(path, "gen", str(e))
        return g.src, g.tgt

    def push(self, t, i=0, default="x"):
        """Name the binder of t's i-th hint, fresh for the names to avoid,
        and put it in force."""
        hint = t.hints[i] if len(t.hints) > i else default
        x = syntax._fresh(hint or "x", self.avoid)
        self.names.append(x)
        self.avoid.add(x)
        return x

    def var_name(self, t):
        """The name t refers to if it is a variable: its own, or the one
        given to the binder its index points to; None otherwise."""
        if t.kind == "bvar" and t.index < len(self.names):
            return self.names[-1 - t.index]
        return t.name if t.kind == "var" else None

    def split(self, t, path, delta):
        """The shares of the linear zone delta that t's children get."""
        try:
            return split_linear(delta, t, self.names)
        except LinearityError as e:
            raise LinearityError(path, e.rule, e.message)

    def nonlinear(self, path, delta, rule):
        """Reject a nonempty share delta of the linear zone routed to a
        subterm under `rule`, which is nonlinear."""
        if delta:
            raise LinearityError(
                path, rule, f"linear variable(s) "
                f"{', '.join(sorted(x for x, _ in delta))} cannot be"
                f" used under {rule}")

    def deriv(self, rule, zs, term, ty, children=(), binders=()):
        """The node of a rule, holding its zones by reference; a binding
        rule's binders are the names its body was checked under, which are
        released here.  Its judgement is not validated again: its form is A
        for one zone and C for more (`syntax.FORMS`), and every name a
        binder adds is fresh for the names to avoid."""
        for _ in binders:
            self.avoid.discard(self.names.pop())
        j = _new(Judgement)
        j.__dict__.update(calculus=self.calculus,
                          form="A" if len(zs) == 1 else "C", zones=zs,
                          term=term, ty=ty)
        return Derivation(rule, j, children, binders, self.expects.pop())

    def synth(self, form):
        """The synthesis function of the judgements of a form."""
        if form == "A":
            return self.synth_a
        return {"lnl": self.synth_lnl_c,
                "arrow": self.synth_command}.get(self.calculus,
                                                 self.synth_armm_c)

    # .. entry ............................................................

    def check_judgement(self, j: Judgement, validated=False) -> Derivation:
        if not validated:
            try:
                j.__post_init__()  # the root's zones, which every node's share
            except SyntaxError_ as e:
                self.fail((), "judgement", e.msg)
            kinds = syntax.FORMS[j.calculus, j.form]
            for zone, kind in zip(j.zones, kinds):
                for x, ty in zone:
                    validate_type(ty, self.calculus, kind, self.sig)
            validate_type(j.ty, self.calculus, kinds[-1], self.sig)
        self.avoid |= {x for zone in j.zones for x, _ in zone}
        self.avoid |= j.term.occ[0]
        if self.calculus == "urmm" and len(j.zones[0]) != 1:
            self.fail((), "judgement",
                      "the unary calculus takes exactly one context variable")
        if j.form == "C" and self.calculus == "lnl":
            unused = {x for x, _ in j.zones[1]} - \
                syntax.free_vars(j.term, self.names)
            if unused:
                raise LinearityError(
                    (), "linear", f"unused linear variable(s): "
                    f"{', '.join(sorted(unused))}")
        d, ty = self.synth(j.form)(j.term, (), j.zones, j.ty)
        if not self.teq(ty, j.ty):
            self.fail((), "judgement", "result type mismatch", j.ty, ty)
        return d

    # .. rules several forms share ........................................
    # Each takes the node's zones zs and `synth`, the synthesis function of
    # its children; where a child's zones are not zs, the caller gives them.

    def synth_pair(self, t, path, zs, expect, synth, rule, zs0, zs1):
        d1, ty1 = synth(t.subs[0], path + (0,), zs0, _part(expect, "prod"))
        d2, ty2 = synth(t.subs[1], path + (1,), zs1, _part(expect, "prod", 1))
        ty = prod(ty1, ty2)
        return self.deriv(rule, zs, t, ty, (d1, d2)), ty

    def synth_proj(self, t, path, zs, synth, rule):
        d1, ty1 = synth(t.subs[0], path + (0,), zs, None)
        if ty1.kind != "prod":
            self.fail(path, t.kind, "projection of a non-product", actual=ty1)
        ty = ty1.subs[0 if t.kind == "pi1" else 1]
        return self.deriv(rule, zs, t, ty, (d1,)), ty

    def synth_ret(self, t, path, zs, expect, synth):
        ej = _part(expect, "tt")
        d1, ty1 = synth(t.subs[0], path + (0,), zs,
                        None if ej is None else jt(ej))
        if ty1.kind != "jt":
            self.fail(path, "ret", "ret expects a J-typed argument",
                      actual=ty1)
        ty = tt(ty1.subs[0])
        return self.deriv("ret", zs, t, ty, (d1,)), ty

    def synth_do(self, t, path, zs, expect, synth, zs0, zs1, z):
        """The ungraded do: its scrutinee, of a type T(A), under zs0; its
        body under zs1 with the binder, of type J(A), last in zone z.  In
        LNL's linear zone (z = 1) the binder must be used."""
        d1, ty1 = synth(t.subs[0], path + (0,), zs0, None)
        if ty1.kind != "tt":
            self.fail(path, "do", "do expects a computation", actual=ty1)
        x = self.push(t)
        if self.calculus == "lnl" and z == 1 and \
                not syntax.uses_bvar(t.subs[1], 0):
            raise LinearityError(path, "do", f"unused linear variable {x!r}")
        d2, ty2 = synth(t.subs[1], path + (1,),
                        _extend(zs1, z, x, jt(ty1.subs[0])), expect)
        if ty2.kind != "tt":
            self.fail(path, "do", "do body must be a computation", actual=ty2)
        return self.deriv("do", zs, t, ty2, (d1, d2), binders=(x,)), ty2

    def synth_let(self, t, path, zs, expect, synth, zs0, zs1, z):
        """let J(a) / let K(a): its scrutinee, of a type J(A) / K(A), under
        zs0; its body under zs1 with a, of type A, last in zone z."""
        k = t.kind
        former, f = ("jt", "J") if k == "letj" else ("kt", "K")
        d1, ty1 = synth(t.subs[0], path + (0,), zs0, None)
        if ty1.kind != former:
            self.fail(path, k, f"let {f}(a) scrutinee must be {f}-typed",
                      actual=ty1)
        a = self.push(t, 0, "a")
        d2, ty2 = synth(t.subs[1], path + (1,),
                        _extend(zs1, z, a, ty1.subs[0]), expect)
        return self.deriv(k, zs, t, ty2, (d1, d2), binders=(a,)), ty2

    def synth_intro(self, t, path, zs, expect, zone):
        """J(a) / K(a), a checked as an A-judgement under `zone`."""
        former = "jt" if t.kind == "jterm" else "kt"
        d1, ty1 = self.synth_a(t.subs[0], path + (0,), (zone,),
                               _part(expect, former))
        ty = TypeExpr(former, (ty1,))
        return self.deriv(t.kind, zs, t, ty, (d1,)), ty

    def synth_opapp(self, t, path, zs, synth):
        try:
            decl = self.sig.op_decl(t.name)
        except SignatureError as e:
            raise _Fail(path, "op", str(e))
        if len(t.subs) != len(decl.params):
            self.fail(path, "op", f"operation {t.name} expects"
                      f" {len(decl.params)} argument(s), got {len(t.subs)}")
        children = []
        for i, (s, (_, pty)) in enumerate(zip(t.subs, decl.params)):
            d, ty = synth(s, path + (i,), zs, pty)
            if not self.teq(ty, pty):
                self.fail(path + (i,), "op", f"operation {t.name} argument"
                          f" {i + 1} type mismatch", pty, ty)
            children.append(d)
        return self.deriv("op", zs, t, decl.result, tuple(children)), \
            decl.result

    # .. A-zone synthesis (Cartesian judgements of every calculus) ........

    def synth_a(self, t: Term, path, zs, expect=None):
        self.expects.append(expect)
        calc = self.calculus
        k = t.kind
        x = self.var_name(t)
        if x is not None:
            ty = _find(zs[0], x)
            if ty is None:
                self.fail(path, "var", f"unbound variable {x!r}")
            return self.deriv("var", zs, t, ty), ty
        match k:
            case "unit":
                if calc in ("rmm", "urmm") and expect is not None and \
                        expect.kind == "jt" and expect.subs[0].kind == "unit1":
                    # () inhabits J(1): the terminal object's unique element
                    return self.deriv("unit-j", zs, t, expect), expect
                return self.deriv("unit", zs, t, syntax.UNIT1), syntax.UNIT1
            case "pair":
                return self.synth_pair(t, path, zs, expect, self.synth_a,
                                       "pair", zs, zs)
            case "pi1" | "pi2":
                return self.synth_proj(t, path, zs, self.synth_a, k)
            case "gen":
                src, tgt = self.gen_endpoints(t.name, path)
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), zs,
                                       expect=jt(base(src)))
                if not self.teq(ty1, jt(base(src))):
                    self.fail(path, "gen", f"generator {t.name} expects",
                              jt(base(src)), ty1)
                ty = jt(base(tgt))
                return self.deriv("gen", zs, t, ty, (d1,)), ty
            case "ret" if calc != "gmm":
                return self.synth_ret(t, path, zs, expect, self.synth_a)
            case "do" if calc != "gmm":
                # the unary calculus's body has the binder alone
                return self.synth_do(t, path, zs, expect, self.synth_a, zs,
                                     ((),) if calc == "urmm" else zs, 0)
            case "ret":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), zs)
                ty = tgr(self.graded(path, "ret").unit(), ty1)
                return self.deriv("ret", zs, t, ty, (d1,)), ty
            case "do":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), zs)
                if ty1.kind != "tgr":
                    self.fail(path, "do", "do expects a graded computation",
                              actual=ty1)
                x = self.push(t)
                d2, ty2 = self.synth_a(t.subs[1], path + (1,),
                                       _extend(zs, 0, x, ty1.subs[0]))
                if ty2.kind != "tgr":
                    self.fail(path, "do", "do body must be a graded"
                              " computation", actual=ty2)
                g = self.graded(path, "do")
                ty = tgr(g.tensor(g.norm(ty1.grade), g.norm(ty2.grade)),
                         ty2.subs[0])
                return self.deriv("do", zs, t, ty, (d1, d2), binders=(x,)), ty
            case "opapp":
                return self.synth_opapp(t, path, zs, self.synth_a)
            case "regrade":
                if calc != "gmm":
                    self.fail(path, "regrade", "regrade is a graded-calculus term")
                g = self.graded(path, "regrade")
                xi = g.norm_mor(t.xi)
                if not g.has_mor(xi):
                    self.fail(path, "regrade",
                              f"no grading morphism {t.xi}")
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), zs)
                if ty1.kind != "tgr" or not g.equal_grades(ty1.grade, xi.tgt):
                    self.fail(path, "regrade",
                              f"regrade<{t.xi}> applies at grade {xi.tgt}",
                              tgr(xi.tgt, base("_")), ty1)
                ty = tgr(xi.src, ty1.subs[0])
                return self.deriv("regrade", zs, t, ty, (d1,)), ty
            case "lam":
                if calc not in ("lnl", "arrow"):
                    self.fail(path, "lam", f"lambda is not a term of {calc}")
                x = self.push(t)
                d1, tyb = self.synth_a(t.subs[0], path + (0,),
                                       _extend(zs, 0, x, t.tyann),
                                       _part(expect, "fun", 1))
                ty = syntax.fun(t.tyann, tyb)
                return self.deriv("lam", zs, t, ty, (d1,), binders=(x,)), ty
            case "app":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), zs)
                if calc == "armm":
                    if ty1.kind != "aabs" or ty1.subs[1].kind != "jt":
                        self.fail(path, "app",
                                  "application expects u : A => J(B)",
                                  actual=ty1)
                elif ty1.kind != "fun":
                    self.fail(path, "app", "application of a non-function",
                              actual=ty1)
                d2, ty2 = self.synth_a(t.subs[1], path + (1,), zs,
                                       expect=ty1.subs[0])
                if not self.teq(ty2, ty1.subs[0]):
                    self.fail(path, "app", "argument type mismatch",
                              ty1.subs[0], ty2)
                ty = ty1.subs[1].subs[0] if calc == "armm" else ty1.subs[1]
                return self.deriv("app", zs, t, ty, (d1, d2)), ty
            case "rterm":
                if calc != "lnl":
                    self.fail(path, "rterm", "R(-) is an LNL term")
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,),
                                           (zs[0], ()), _part(expect, "rt"))
                ty = syntax.rt(ty1)
                return self.deriv("rterm", zs, t, ty, (d1,)), ty
            case "lamarrow":
                return self.synth_lamarrow(t, path, zs, expect)
        self.fail(path, k, f"term former {k!r} cannot appear in an"
                           f" {calc} term judgement here")

    def synth_lamarrow(self, t, path, zs, expect):
        calc = self.calculus
        if calc not in ("arrow", "armm"):
            self.fail(path, "lamarrow",
                      f"arrow abstraction is not a term of {calc}")
        former = "arr" if calc == "arrow" else "aabs"
        ann = t.tyann
        if ann is None:
            if expect is None or expect.kind != former:
                self.fail(path, "lamarrow", "unannotated " + (
                    "arrow abstraction needs an expected arrow type"
                    if calc == "arrow" else
                    "abstraction needs an expected =>-type"))
            ann = expect.subs[0]
        x = self.push(t)
        # the binder is the command's Delta, or the three-zone Delta
        body = (zs[0], ((x, ann),)) + (() if calc == "arrow" else ((),))
        d1, tyb = self.synth("C")(t.subs[0], path + (0,), body,
                                  _part(expect, former, 1))
        ty = TypeExpr(former, (ann, tyb))
        return self.deriv("lamarrow", zs, t, ty, (d1,), binders=(x,)), ty

    # .. LNL linear judgements ............................................

    def synth_lnl_c(self, t: Term, path, zs, expect=None):
        self.expects.append(expect)
        k = t.kind
        gamma, delta = zs
        x = self.var_name(t)
        if x is not None:
            ty = _find(delta, x)
            if ty is not None:
                return self.deriv("lvar", zs, t, ty), ty
            if _find(gamma, x) is not None:
                raise LinearityError(
                    path, "lvar", f"nonlinear variable {x!r} used as"
                    f" a linear term (use J(-)/derelict)")
            self.fail(path, "lvar", f"unbound variable {x!r}")
        match k:
            case "unit":
                self.nonlinear(path, delta, "unit")
                return self.deriv("lunit", zs, t, syntax.LUNIT), syntax.LUNIT
            case "pair":
                c0, c1 = self.split(t, path, delta)
                return self.synth_pair(t, path, zs, expect, self.synth_lnl_c,
                                       "tensor", (gamma, c0), (gamma, c1))
            case "letunit":
                c0, c1 = self.split(t, path, delta)
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,),
                                           (gamma, c0), syntax.LUNIT)
                if ty1.kind != "lunit":
                    self.fail(path, "letunit", "let () scrutinee must have"
                              " type I", syntax.LUNIT, ty1)
                d2, ty2 = self.synth_lnl_c(t.subs[1], path + (1,),
                                           (gamma, c1), expect)
                return self.deriv("letunit", zs, t, ty2, (d1, d2)), ty2
            case "letpair":
                c0, c1 = self.split(t, path, delta)
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,),
                                           (gamma, c0))
                if ty1.kind != "prod":
                    self.fail(path, "letpair", "let (x,y) scrutinee must have"
                              " a tensor type", actual=ty1)
                x, y = self.push(t, 0, "x"), self.push(t, 1, "y")
                for v, i in ((x, 1), (y, 0)):  # x is bvar 1, y is bvar 0
                    if not syntax.uses_bvar(t.subs[1], i):
                        raise LinearityError(
                            path, "letpair", f"unused linear variable {v!r}")
                d2, ty2 = self.synth_lnl_c(
                    t.subs[1], path + (1,),
                    (gamma, c1 + ((x, ty1.subs[0]), (y, ty1.subs[1]))),
                    expect)
                return self.deriv("letpair", zs, t, ty2, (d1, d2),
                                  binders=(x, y)), ty2
            case "lam":
                x = self.push(t)
                if not syntax.uses_bvar(t.subs[0], 0):
                    raise LinearityError(
                        path, "limpl", f"unused linear variable {x!r}")
                d1, tyb = self.synth_lnl_c(t.subs[0], path + (0,),
                                           _extend(zs, 1, x, t.tyann),
                                           _part(expect, "lolli", 1))
                ty = syntax.lolli(t.tyann, tyb)
                return self.deriv("limpl", zs, t, ty, (d1,),
                                  binders=(x,)), ty
            case "app":
                c0, c1 = self.split(t, path, delta)
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,),
                                           (gamma, c0))
                if ty1.kind != "lolli":
                    self.fail(path, "lapp", "application of a non-(-o) term",
                              actual=ty1)
                d2, ty2 = self.synth_lnl_c(t.subs[1], path + (1,),
                                           (gamma, c1), ty1.subs[0])
                if not self.teq(ty2, ty1.subs[0]):
                    self.fail(path, "lapp", "argument type mismatch",
                              ty1.subs[0], ty2)
                ty = ty1.subs[1]
                return self.deriv("lapp", zs, t, ty, (d1, d2)), ty
            case "ret":
                return self.synth_ret(t, path, zs, expect, self.synth_lnl_c)
            case "do":
                c0, c1 = self.split(t, path, delta)
                return self.synth_do(t, path, zs, expect, self.synth_lnl_c,
                                     (gamma, c0), (gamma, c1), 1)
            case "regrade":
                g = self.graded(path, "regrade")
                xi = g.norm_mor(t.xi)
                if not g.has_mor(xi):
                    self.fail(path, "regrade", f"no grading morphism {t.xi}")
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,), zs,
                                           grty(xi.src))
                if ty1.kind != "grty" or not g.equal_grades(ty1.grade,
                                                            xi.src):
                    self.fail(path, "regrade",
                              f"grade action <{t.xi}> applies at {xi.src}",
                              grty(xi.src), ty1)
                ty = grty(t.xi.tgt)  # the written target keeps factorizations
                return self.deriv("regrade", zs, t, ty, (d1,)), ty
            case "merge":
                d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,), zs)
                if ty1.kind == "lunit":
                    ty = grty(self.graded(path, "merge").unit())
                elif ty1.kind == "prod" and ty1.subs[0].kind == "grty" \
                        and ty1.subs[1].kind == "grty":
                    ty = grty(syntax.gtensor(ty1.subs[0].grade,
                                             ty1.subs[1].grade))
                else:
                    self.fail(path, "merge", "merge expects I or a tensor of"
                              " grade types", actual=ty1)
                return self.deriv("merge", zs, t, ty, (d1,)), ty
            case "unmerge":
                g = self.grading
                if expect is not None and expect.kind == "lunit":
                    u = grty(self.graded(path, "unmerge").unit())
                    d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,), zs, u)
                    if ty1.kind != "grty" or not g.equal_grades(ty1.grade,
                                                                u.grade):
                        self.fail(path, "unmerge", "unmerge to I expects the"
                                  " unit grade", u, ty1)
                    ty = syntax.LUNIT
                elif expect is not None and expect.kind == "prod" and \
                        expect.subs[0].kind == "grty" and \
                        expect.subs[1].kind == "grty":
                    mn = syntax.gtensor(expect.subs[0].grade,
                                        expect.subs[1].grade)
                    d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,), zs,
                                               grty(mn))
                    if ty1.kind != "grty" or not g.equal_grades(ty1.grade,
                                                                mn):
                        self.fail(path, "unmerge", "unmerge target grades do"
                                  " not multiply to the source", grty(mn),
                                  ty1)
                    ty = expect
                else:
                    d1, ty1 = self.synth_lnl_c(t.subs[0], path + (0,), zs)
                    if ty1.kind != "grty":
                        self.fail(path, "unmerge", "unmerge expects a grade"
                                  " type", actual=ty1)
                    m = ty1.grade
                    if m.kind == "tensor":
                        ty = prod(grty(m.subs[0]), grty(m.subs[1]))
                    elif g.equal_grades(m, g.unit()):
                        ty = syntax.LUNIT
                    else:
                        self.fail(path, "unmerge",
                                  f"cannot infer a factorization of grade {m};"
                                  f" annotate via the expected type")
                return self.deriv("unmerge", zs, t, ty, (d1,)), ty
            case "jterm":
                self.nonlinear(path, delta, "J(-)")
                return self.synth_intro(t, path, zs, expect, gamma)
            case "letj":
                c0, c1 = self.split(t, path, delta)
                return self.synth_let(t, path, zs, expect, self.synth_lnl_c,
                                      (gamma, c0), (gamma, c1), 0)
            case "derelict":
                self.nonlinear(path, delta, "derelict")
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), (gamma,))
                if ty1.kind != "rt":
                    self.fail(path, "derelict", "derelict expects an R-typed"
                              " term", actual=ty1)
                ty = ty1.subs[0]
                return self.deriv("derelict", zs, t, ty, (d1,)), ty
            case "opapp":
                self.nonlinear(path, delta, "op")
                return self.synth_opapp(t, path, zs, self.synth_lnl_c)
        self.fail(path, k, f"term former {k!r} is not a linear-judgement term")

    # .. arrow-calculus commands ..........................................

    def synth_command(self, t: Term, path, zs, expect=None):
        self.expects.append(expect)
        gamma, delta = zs
        match t.kind:
            case "ret":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,),
                                       (gamma + delta,), expect)
                return self.deriv("cmd-ret", zs, t, ty1, (d1,)), ty1
            case "aapp":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), (gamma,))
                if ty1.kind != "arr":
                    self.fail(path, "cmd-app", "arrow application expects"
                              " u : A ~> B", actual=ty1)
                d2, ty2 = self.synth_a(t.subs[1], path + (1,),
                                       (gamma + delta,), ty1.subs[0])
                if not self.teq(ty2, ty1.subs[0]):
                    self.fail(path, "cmd-app", "arrow argument type mismatch",
                              ty1.subs[0], ty2)
                ty = ty1.subs[1]
                return self.deriv("cmd-app", zs, t, ty, (d1, d2)), ty
            case "do":
                d1, ty1 = self.synth_command(t.subs[0], path + (0,), zs)
                x = self.push(t)
                d2, ty2 = self.synth_command(t.subs[1], path + (1,),
                                             _extend(zs, 1, x, ty1), expect)
                return self.deriv("cmd-do", zs, t, ty2, (d1, d2),
                                  binders=(x,)), ty2
        k = "var" if self.var_name(t) is not None else t.kind
        self.fail(path, k,
                  f"{k!r} is not a command former (commands are"
                  f" ret / u . v / do)")

    # .. three-zone judgements ............................................

    def synth_armm_c(self, t: Term, path, zs, expect=None):
        self.expects.append(expect)
        gamma, delta, phi = zs
        k = t.kind
        x = self.var_name(t)
        if x is not None:
            ty = _find(phi, x)
            if ty is None:
                if _find(gamma + delta, x) is not None:
                    self.fail(path, "cvar", f"variable {x!r} lives in"
                              f" a nonlinear zone; use J(-)/K(-)")
                self.fail(path, "cvar", f"unbound variable {x!r}")
            return self.deriv("cvar", zs, t, ty), ty
        match k:
            case "unit":
                return self.deriv("cunit", zs, t, syntax.UNIT1), syntax.UNIT1
            case "pair":
                return self.synth_pair(t, path, zs, expect, self.synth_armm_c,
                                       "cpair", zs, zs)
            case "pi1" | "pi2":
                return self.synth_proj(t, path, zs, self.synth_armm_c,
                                       "c" + k)
            case "jterm":
                return self.synth_intro(t, path, zs, expect, gamma + delta)
            case "kterm":
                return self.synth_intro(t, path, zs, expect, gamma)
            case "letj" | "letk":
                # a of let J(a) joins Delta, a of let K(a) Gamma
                return self.synth_let(t, path, zs, expect, self.synth_armm_c,
                                      zs, zs, 1 if k == "letj" else 0)
            case "ret":
                return self.synth_ret(t, path, zs, expect, self.synth_armm_c)
            case "do":
                # the body's third zone is the binder alone
                return self.synth_do(t, path, zs, expect, self.synth_armm_c,
                                     zs, (gamma, delta, ()), 2)
            case "aapp":
                d1, ty1 = self.synth_a(t.subs[0], path + (0,), (gamma,))
                if ty1.kind != "aabs":
                    self.fail(path, "aapp", "arrow application expects"
                              " u : A => X", actual=ty1)
                d2, ty2 = self.synth_a(t.subs[1], path + (1,),
                                       (gamma + delta,), ty1.subs[0])
                if not self.teq(ty2, ty1.subs[0]):
                    self.fail(path, "aapp", "argument type mismatch",
                              ty1.subs[0], ty2)
                ty = ty1.subs[1]
                return self.deriv("aapp", zs, t, ty, (d1, d2)), ty
            case "opapp":
                return self.synth_opapp(t, path, zs, self.synth_armm_c)
        self.fail(path, k, f"term former {k!r} is not a three-zone term")


# ---------------------------------------------------------------------------
# Public API

def check(j: Judgement, sig: Signature, *, validated=False):
    """Decide the judgement, even a Checked one: its `Checked`, holding a
    replayable derivation, or the rejection.  `validated` says that a check
    accepted a judgement of j's shape (its calculus, form, zones and type)
    before, so its zones and type are not validated again."""
    c = _Checker(sig, j.calculus)
    try:
        d = c.check_judgement(j, validated)
    except _Fail as e:
        return CheckResult(False, message=e.message, path=e.path, rule=e.rule,
                           expected=e.expected, actual=e.actual)
    except SignatureError as e:
        return CheckResult(False, message=str(e), path=(), rule="signature")
    return _accepted(j, j.term, sig, d)


def _accepted(j: Judgement, term: Term, sig: Signature, d: Derivation):
    """The Checked of j's shape with `term`, derived by d."""
    out = _new(Checked)
    vars(out).update(calculus=j.calculus, form=j.form, zones=j.zones,
                     term=term, ty=j.ty, sig=sig, derivation=d,
                     _owner=weakref.ref(out))
    return out


def renamed(checked: Checked, term: Term) -> Checked:
    """checked, of `term`, a term `==` checked's that may print its binders
    by other names (`Term.hints`, which `==` ignores)."""
    return _accepted(checked, term, checked.sig, checked.derivation)


def check_at(checked: Checked, path: tuple, new: Term) -> Checked | None:
    """The Checked of checked's judgement with its subterm at `path`
    replaced by `new`, from a check of `new` alone.

    `new` is checked under the inputs the node at `path` was given (zones,
    form, expected type, and the names in force, found walking down from
    the root), avoiding the names checked's check avoided: for a well-typed
    judgement, its zones' names.  The derivation is checked's with the
    subtree at `path` replaced, the ancestors on `path` rebuilt over the
    new root term's spine and every other subtree shared.  That is what a
    full check gives when `new` has the node's occurrences (the linear
    splits, the unused-variable tests and the names to avoid above it read
    only those) and its type is `==` the node's (the nodes above read it
    as is: equality up to the grading could still change their types).
    None when either differs or the check of `new` fails: a full check
    then decides, and words the failure."""
    node, t, names, spine = checked.derivation, checked.term, (), []
    for i in path:
        spine.append((node, t))
        names = node.child_names(i, names)
        node, t = node.children[i], t.subs[i]
    if new.occ != node.judgement.term.occ:
        return None
    j = node.judgement
    c = _Checker(checked.sig, checked.calculus, names)
    c.avoid.update(x for zone in checked.zones for x, _ in zone)
    try:
        d, got = c.synth(j.form)(new, path, j.zones, node.expect)
    except (_Fail, SignatureError):
        return None
    if got != j.ty:
        return None
    term = new
    for (up, t), i in zip(reversed(spine), reversed(path)):
        term = syntax.with_subs(t, t.subs[:i] + (term,) + t.subs[i + 1:])
        kids = up.children
        d = Derivation(up.rule, up.judgement.with_term(term),
                       kids[:i] + (d,) + kids[i + 1:], up.binders, up.expect)
    return _accepted(checked, term, checked.sig, d)


def check_graded_arithmetic(derivation: Derivation, sig: Signature) -> bool:
    """Re-verify every grading-morphism edge and tensor in a graded
    derivation against the grading category."""
    grading = sig.grading
    if grading is None:
        return False
    for node in derivation.walk():
        t = node.judgement.term
        if node.rule == "regrade":
            xi = grading.norm_mor(t.xi)
            if not grading.has_mor(xi):
                return False
        if node.rule == "do" and node.judgement.calculus == "gmm":
            m = node.children[0].judgement.ty
            n = node.children[1].judgement.ty
            out = node.judgement.ty
            if m.kind != "tgr" or n.kind != "tgr" or out.kind != "tgr":
                return False
            if not grading.equal_grades(
                    out.grade, syntax.gtensor(m.grade, n.grade)):
                return False
    return True


def replay(derivation: Derivation, sig: Signature) -> bool:
    """Re-check every node's judgement locally, under the names its
    ancestors gave the binders in force; True if all accept."""
    def go(node, names):
        try:
            _Checker(sig, node.judgement.calculus, names).check_judgement(
                node.judgement)
        except (_Fail, SignatureError):
            return False
        return all(go(c, node.child_names(i, names))
                   for i, c in enumerate(node.children))

    return go(derivation, ())


def serialize_derivation(d: Derivation) -> str:
    """One node per line, in preorder: index, rule name, judgement (its
    term printed under the names of the binders in force), child indices."""
    lines = []

    def go(node, names):
        idx = len(lines)
        lines.append(None)
        kids = [go(c, node.child_names(i, names))
                for i, c in enumerate(node.children)]
        lines[idx] = f"{idx}: {node.rule} | {node.judgement.text(names)}" \
                     f" | children={kids}"
        return idx

    go(d, ())
    return "\n".join(lines)
