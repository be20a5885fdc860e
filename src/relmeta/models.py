"""Executable finite denotational backends.

Four backends: the dyadic distribution relative monad on finite carriers,
the exception-monad restriction, the grade-bounded list graded monad, and
the Kleisli-arrow model of the two arrow languages.  Everything is exact:
probabilities are dyadic rationals in canonical form and equality of
values is structural, with no tolerances anywhere.

Semantic equality sweeps every environment over the finite carriers.  For
distribution-typed variables this is a priori an infinite space; the sweep
enumerates the principal lattice of dyadic distributions of denominator
2^k where 2^k bounds the polynomial degree of the two interpretations in
the input weights (every clause is (multi)linear in a fresh weight, so the
degree is bounded by term size).  The order-m principal lattice of a
simplex is unisolvent for polynomials of total degree <= m, which makes
agreement on the lattice agreement everywhere: the verdict is exact, not a
sampling heuristic.

Evaluation follows the typing derivation.  A derivation is compiled once
into a closure tree (binder names resolved to environment slots) and the
tree is run for each environment, so semantic_eq compiles each side once
per sweep.  Function and command tables are memoized on the values of
their own free variables; the memos live for one call.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

from . import syntax
from .signatures import Signature, SignatureError
from .syntax import Grade, Judgement, TypeExpr
from .typecheck import Derivation, check, is_checked


class ModelError(Exception):
    pass


class CarrierTooLarge(ModelError):
    pass


# ---------------------------------------------------------------------------
# exact dyadic arithmetic

@dataclass(frozen=True)
class Dyadic:
    """num / 2^exp in canonical form (num odd or zero; exp 0 when num is 0)."""

    num: int
    exp: int

    def __post_init__(self):
        assert self.exp >= 0
        if self.num == 0:
            assert self.exp == 0
        else:
            assert self.num % 2 == 1 or self.exp == 0

    @staticmethod
    def make(num: int, exp: int) -> "Dyadic":
        if num == 0:
            return Dyadic(0, 0)
        while num % 2 == 0 and exp > 0:
            num //= 2
            exp -= 1
        return Dyadic(num, exp)

    def __add__(self, other):
        e = max(self.exp, other.exp)
        return Dyadic.make(self.num * (1 << (e - self.exp)) +
                           other.num * (1 << (e - other.exp)), e)

    def __sub__(self, other):
        e = max(self.exp, other.exp)
        return Dyadic.make(self.num * (1 << (e - self.exp)) -
                           other.num * (1 << (e - other.exp)), e)

    def __mul__(self, other):
        return Dyadic.make(self.num * other.num, self.exp + other.exp)

    def __str__(self):
        return str(self.num) if self.exp == 0 else f"{self.num}/2^{self.exp}"

    @staticmethod
    def parse(text: str) -> "Dyadic":
        text = text.strip()
        m = re.fullmatch(r"(-?\d+)\s*/\s*2\^(\d+)", text)
        if m:
            return Dyadic.make(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"(-?\d+)\s*/\s*(\d+)", text)
        if m:
            den = int(m.group(2))
            e = den.bit_length() - 1
            if den != 1 << e:
                raise ModelError(f"non-dyadic weight {text!r}")
            return Dyadic.make(int(m.group(1)), e)
        if re.fullmatch(r"-?\d+", text):
            return Dyadic.make(int(text), 0)
        raise ModelError(f"cannot parse dyadic {text!r}")


DY_ZERO = Dyadic(0, 0)
DY_ONE = Dyadic(1, 0)


# ---------------------------------------------------------------------------
# semantic values

@dataclass(frozen=True)
class Value:
    kind: str
    payload: tuple = ()

    def __str__(self):
        return render_value(self)


def VUnit() -> Value:
    return Value("unit")


def VElem(label: str) -> Value:
    return Value("elem", (label,))


def VTuple(a: Value, b: Value) -> Value:
    return Value("tuple", (a, b))


def VDist(entries) -> Value:
    ent = tuple(sorted(((v, p) for v, p in entries if p.num != 0),
                       key=lambda e: value_key(e[0])))
    total = DY_ZERO
    for _, p in ent:
        total = total + p
    if total != DY_ONE:
        raise ModelError(f"distribution weights sum to {total}, not 1")
    return Value("dist", ent)


def VOk(v: Value) -> Value:
    return Value("ok", (v,))


def VErr(tag: str) -> Value:
    return Value("err", (tag,))


def VList(items) -> Value:
    return Value("list", tuple(items))


def VFun(table) -> Value:
    return Value("fun", tuple(sorted(table, key=lambda e: value_key(e[0]))))


def VGrade(g: Grade) -> Value:
    return Value("grade", (str(g),))


def VWrap(v: Value) -> Value:
    return Value("wrap", (v,))


def VJ(v: Value) -> Value:
    return Value("vj", (v,))


def VK(v: Value) -> Value:
    return Value("vk", (v,))


def VT(v: Value) -> Value:
    return Value("vt", (v,))


def value_key(v: Value):
    return (v.kind, tuple(value_key(p) if isinstance(p, Value)
                          else (str(p),) for p in v.payload))


def render_value(v: Value) -> str:
    match v.kind:
        case "unit":
            return "()"
        case "elem":
            return v.payload[0]
        case "tuple":
            return f"({v.payload[0]}, {v.payload[1]})"
        case "dist":
            inner = ", ".join(f"{e}:{p}" for e, p in v.payload)
            return "{" + inner + "}"
        case "ok":
            return f"ok({v.payload[0]})"
        case "err":
            return f"err({v.payload[0]})"
        case "list":
            return "[" + ", ".join(str(x) for x in v.payload) + "]"
        case "fun":
            inner = ", ".join(f"{a} -> {b}" for a, b in v.payload)
            return "{" + inner + "}"
        case "grade":
            return f"#{v.payload[0]}"
        case "wrap":
            return f"R({v.payload[0]})"
        case "vj":
            return f"J({v.payload[0]})"
        case "vk":
            return f"K({v.payload[0]})"
        case "vt":
            return f"T({v.payload[0]})"
    raise AssertionError(v.kind)


def fun_lookup(f: Value, arg: Value) -> Value:
    for a, b in f.payload:
        if a == arg:
            return b
    raise ModelError(f"function table has no entry for {arg}")


# ---------------------------------------------------------------------------
# model bindings

@dataclass
class ModelBinding:
    calculus: str
    backend: tuple
    carriers: dict
    geninterp: dict
    opinterp: dict
    # (signature, whether the binding is a model of it) and (signature,
    # whether it respects the signature's relations) for each signature
    # `equations.check_eq` has asked about, compared by identity
    theory_memo: list = field(default_factory=list, init=False, repr=False,
                              compare=False)
    relations_memo: list = field(default_factory=list, init=False,
                                 repr=False, compare=False)

    def carrier(self, obj: str):
        if obj not in self.carriers:
            raise ModelError(f"no carrier declared for object {obj!r}")
        return self.carriers[obj]


def load_binding(text: str, sig: Signature) -> ModelBinding:
    """A model binding from its text (see the file grammar in the README)."""
    kv = syntax.read_keys(text, ("calculus", "backend"),
                          ("carrier", "interp", "opinterp"))
    calculus = syntax.calculus_of(kv)
    if "backend" not in kv:
        raise ModelError("binding file declares no backend")
    backend = _parse_backend(kv["backend"][1])
    entries = {key: syntax.split_entries(key, kv.get(key, ()), 1)
               for key in ("carrier", "interp", "opinterp")}
    carriers = {name: tuple(e.strip() for e in elems.strip("{}").split(",")
                            if e.strip())
                for (name,), elems in entries["carrier"].items()}
    geninterp = {name: _parse_table(table)
                 for (name,), table in entries["interp"].items()}
    opinterp = {name: _parse_op_value(val)
                for (name,), val in entries["opinterp"].items()}
    binding = ModelBinding(calculus, backend, carriers, geninterp, opinterp)
    validate_binding(binding, sig)
    return binding


def _parse_backend(text: str):
    text = text.strip()
    if text == "distribution":
        return ("distribution",)
    if text == "gradedlist":
        return ("gradedlist",)
    m = re.fullmatch(r"exception\(([^()]*)\)", text)
    if m:
        tags = tuple(t.strip() for t in m.group(1).split(",") if t.strip())
        return ("exception", tags or ("err",))
    m = re.fullmatch(r"kleisli\((.*)\)", text)
    if m:
        return ("kleisli", _parse_backend(m.group(1)))
    raise ModelError(f"unknown backend {text!r}")


def _parse_table(text: str) -> dict:
    text = text.strip().strip("{}")
    table = {}
    for item in re.split(r",(?![^()]*\))", text):
        item = item.strip()
        if not item:
            continue
        lhs, _, rhs = item.partition("->")
        lhs = lhs.strip()
        if lhs.startswith("("):
            key = tuple(p.strip() for p in lhs.strip("()").split(","))
        else:
            key = lhs
        table[key] = rhs.strip()
    return table


def _parse_op_value(text: str):
    text = text.strip()
    if text.startswith("dist{"):
        inner = text[len("dist{"):-1]
        entries = []
        for item in inner.split(","):
            e, _, w = item.partition(":")
            entries.append((VElem(e.strip()), Dyadic.parse(w)))
        return VDist(entries)
    if text.startswith("exc("):
        return VErr(text[4:-1].strip())
    if text.startswith("list["):
        inner = text[len("list["):-1]
        return VList(VElem(e.strip()) for e in inner.split(",") if e.strip())
    if text.startswith("{"):
        return _parse_table(text)
    return VElem(text)


def validate_binding(binding: ModelBinding, sig: Signature):
    """Totality of generator tables plus brute-force respect for the
    presentation's relations."""
    for name, table in binding.geninterp.items():
        decl = sig.gen_decl(name)
        src = binding.carrier(decl.src)
        tgt = binding.carrier(decl.tgt)
        for e in src:
            if e not in table:
                raise ModelError(f"interp {name}: missing entry for {e}")
            if table[e] not in tgt:
                raise ModelError(f"interp {name}: {table[e]} not in carrier"
                                 f" of {decl.tgt}")

    def word_fn(word, at=None):
        # composition of the element tables, identity for the empty word
        def fn(e):
            for g in reversed(word):
                e = binding.geninterp[g][e]
            return e
        return fn

    for lhs, rhs in sig.category.relations:
        if any(g not in binding.geninterp for g in lhs + rhs):
            continue
        try:
            src, _ = sig.category.word_endpoints(lhs or rhs)
        except SignatureError:
            continue
        f1, f2 = word_fn(lhs), word_fn(rhs)
        for e in binding.carrier(src):
            if f1(e) != f2(e):
                raise ModelError(
                    f"generator interpretation violates the relation"
                    f" {';'.join(lhs) or 'id'} = {';'.join(rhs) or 'id'}"
                    f" at {e}")


# ---------------------------------------------------------------------------
# backend monad structure (unit / bind on monadic values)

def monad_unit(backend, v: Value) -> Value:
    match backend[0]:
        case "distribution":
            return VDist(((v, DY_ONE),))
        case "exception":
            return VOk(v)
        case "gradedlist":
            return VList((v,))
    raise ModelError(f"backend {backend[0]} has no first-class unit")


def monad_bind(backend, mv: Value, k) -> Value:
    match backend[0]:
        case "distribution":
            acc: dict = {}
            for a, p in mv.payload:
                for b, q in k(a).payload:
                    acc[b] = acc.get(b, DY_ZERO) + (p * q)
            return VDist(acc.items())
        case "exception":
            if mv.kind == "err":
                return mv
            return k(mv.payload[0])
        case "gradedlist":
            out = []
            for a in mv.payload:
                out.extend(k(a).payload)
            return VList(out)
    raise ModelError(f"backend {backend[0]} has no first-class bind")


# ---------------------------------------------------------------------------
# carriers of types

def carrier_values(ty: TypeExpr, binding: ModelBinding, sig: Signature,
                   grid_exp: int = 1) -> list[Value]:
    """All semantic values of a type, used for environment sweeps and for
    tabulating function values.  Raises for non-enumerable types."""
    backend = binding.backend
    k = ty.kind
    if k == "unit1" or k == "lunit":
        return [VUnit()]
    if k == "base":
        return [VElem(e) for e in binding.carrier(ty.name)]
    if k == "prod":
        return [VTuple(a, b)
                for a in carrier_values(ty.subs[0], binding, sig, grid_exp)
                for b in carrier_values(ty.subs[1], binding, sig, grid_exp)]
    if k == "jt":
        if binding.calculus in ("armm", "lnl"):
            return [VJ(v) for v in
                    carrier_values(ty.subs[0], binding, sig, grid_exp)]
        return carrier_values(ty.subs[0], binding, sig, grid_exp)
    if k == "kt":
        return [VK(v) for v in
                carrier_values(ty.subs[0], binding, sig, grid_exp)]
    if k == "grty":
        g = sig.grading.norm(ty.grade) if sig.grading else ty.grade
        return [VGrade(g)]
    if k == "tt":
        inner = carrier_values(ty.subs[0], binding, sig, grid_exp)
        if binding.calculus == "armm" and backend[0] == "kleisli":
            return [VT(mv) for mv in
                    _monadic_values(backend[1], [v.payload[0] for v in inner]
                                    if inner and inner[0].kind == "vj"
                                    else inner, grid_exp)]
        if binding.calculus == "lnl":
            raise ModelError("bare computation types are not enumerable in"
                             " the linear calculus (bound them by a grade)")
        return _monadic_values(backend, inner, grid_exp)
    if k == "tgr":
        if backend[0] != "gradedlist":
            raise ModelError("graded types need the gradedlist backend")
        m = sig.grading.norm(ty.grade)
        if m.kind != "nat":
            raise ModelError(f"cannot enumerate grade {m}")
        inner = carrier_values(ty.subs[0], binding, sig, grid_exp)
        out = []
        for n in range(m.nat + 1):
            out.extend(VList(c) for c in itertools.product(inner, repeat=n))
        return out
    if k == "fun":
        dom = carrier_values(ty.subs[0], binding, sig, grid_exp)
        cod = carrier_values(ty.subs[1], binding, sig, grid_exp)
        return _tables(dom, cod)
    if k == "arr":
        dom = carrier_values(ty.subs[0], binding, sig, grid_exp)
        cod = carrier_values(ty.subs[1], binding, sig, grid_exp)
        inner = backend[1] if backend[0] == "kleisli" else backend
        return _tables(dom, _monadic_values(inner, cod, grid_exp))
    if k == "aabs":
        dom = carrier_values(ty.subs[0], binding, sig, grid_exp)
        cod = carrier_values(ty.subs[1], binding, sig, grid_exp)
        return _tables(dom, cod)
    if k == "lolli":
        if ty.subs[0].kind == "grty" and ty.subs[1].kind == "tt":
            # the grade-bounded computation space: one token in the domain,
            # lists of length at most the grade in the codomain
            m = sig.grading.norm(ty.subs[0].grade)
            if m.kind != "nat":
                raise ModelError(f"cannot enumerate grade {m}")
            inner = carrier_values(ty.subs[1].subs[0], binding, sig, grid_exp)
            token = VGrade(m)
            out = []
            for n in range(m.nat + 1):
                out.extend(VFun(((token, VList(c)),))
                           for c in itertools.product(inner, repeat=n))
            return out
        dom = carrier_values(ty.subs[0], binding, sig, grid_exp)
        cod = carrier_values(ty.subs[1], binding, sig, grid_exp)
        return _tables(dom, cod)
    if k == "rt":
        return [VWrap(v) for v in
                carrier_values(ty.subs[0], binding, sig, grid_exp)]
    raise ModelError(f"cannot enumerate values of type {ty}")


def _tables(dom, cod):
    if len(cod) ** len(dom) > TABLE_CAP:
        raise CarrierTooLarge(f"{len(cod)}^{len(dom)} function tables "
                              f"exceed the table cap {TABLE_CAP}")
    out = []
    for images in itertools.product(cod, repeat=len(dom)):
        out.append(VFun(tuple(zip(dom, images))))
    return out


def _monadic_values(backend, inner_values, grid_exp):
    match backend[0]:
        case "exception":
            return ([VOk(v) for v in inner_values] +
                    [VErr(t) for t in backend[1]])
        case "distribution":
            return [VDist(zip(inner_values, w))
                    for w in _simplex_lattice(len(inner_values), grid_exp)]
        case "gradedlist":
            raise ModelError("unbounded list types are not enumerable")
    raise ModelError(f"backend {backend[0]} monadic values not enumerable")


def _simplex_lattice(n, k):
    """All weight vectors (a_i / 2^k) with sum 1: the order-2^k principal
    lattice of the probability simplex on n outcomes."""
    if n == 0:
        return []
    denom = 1 << k
    out = []
    for split in itertools.combinations(range(denom + n - 1), n - 1):
        prev = -1
        parts = []
        for s in split + (denom + n - 1,):
            parts.append(s - prev - 1)
            prev = s
        out.append(tuple(Dyadic.make(a, k) for a in parts))
    return out


# ---------------------------------------------------------------------------
# evaluation: a typing derivation compiled once into a closure tree
#
# compile_derivation turns a checked derivation into run(env), where env is
# a tuple of values indexed by slot: the root judgement's names first, then
# one slot per binder on the way down.  Names resolve to slots at compile
# time.  Each table-building node (lam, limpl, lamarrow, commands) enumerates
# its domain once, with the order VFun sorts it in, and memoizes its table
# on the values of its own free slots.  Memos live as long as the compiled
# tree: one eval_term or semantic_eq call.

MISSING = object()   # the slot of a name the caller's environment lacks
MEMO_CAP = 4096      # tables kept per node before its memo starts over
SWEEP_CAP = 10 ** 6  # environments a sweep may enumerate
TABLE_CAP = 200_000  # tables a function space may enumerate


def eval_term(j: Judgement, env: dict, binding: ModelBinding,
              sig: Signature) -> Value:
    res = j if is_checked(j, sig) else check(j, sig)
    if not res.ok:
        raise ModelError(f"judgement does not check: {res.message}")
    names = _root_names(j)
    run = compile_derivation(res.derivation, names, binding, sig)
    return run(tuple(env.get(x, MISSING) for x in names))


def _root_names(j: Judgement) -> list:
    return list(dict.fromkeys(x for zone in j.zones for x, _ in zone))


def compile_derivation(node: Derivation, names, binding: ModelBinding,
                       sig: Signature):
    """Compile a checked derivation; returns run(env) for env a tuple of
    values in the order of names (MISSING where there is no entry)."""
    run, _ = _compile(node, {x: i for i, x in enumerate(names)}, len(names),
                      binding, sig)
    return run


def _domain(keys):
    """Table keys with the order VFun sorts them in."""
    return keys, sorted(range(len(keys)), key=lambda i: value_key(keys[i]))


def _table(dom, images) -> Value:
    keys, order = dom
    return Value("fun", tuple((keys[i], images[i]) for i in order))


def _memo(build, slots):
    """run(env) building a table once per value of the given slots."""
    memo = {}

    def run(env):
        key = tuple(env[s] for s in slots)
        v = memo.get(key)
        if v is None:
            if len(memo) >= MEMO_CAP:
                memo.clear()
            v = memo[key] = build(env)
        return v
    return run


def _compile(node: Derivation, scope: dict, n: int, binding: ModelBinding,
             sig: Signature):
    """(run, free slots) for one node.  scope maps the root's names to
    their slots; n is the number of slots in use at the node, the root's
    and then one per binder in force, so bvar i is slot n-1-i."""
    t, rule, calc, ty = node.term, node.rule, node.calculus, node.ty
    backend = binding.backend
    free = set()

    def sub(i, bound=()):
        """Compile child i: for the binding child, the node's binders take
        slots n, n+1, ...; slots in `bound` are set by this node before
        the child runs."""
        run, fv = _compile(node.children[i], scope,
                           n + syntax.child_binders(t, i), binding, sig)
        free.update(s for s in fv if s < n and s not in bound)
        return run

    def grade(g):
        return VGrade(sig.grading.norm(g))

    match rule:
        case "var" | "lvar" | "cvar":
            name = t.name
            slot = n - 1 - t.index if t.kind == "bvar" else scope[name]
            free.add(slot)

            def run(env):
                v = env[slot]
                if v is MISSING:
                    raise ModelError(f"environment missing {name!r}")
                return v
        case "unit" | "lunit" | "cunit" | "unit-j" | "merge" | "unmerge":
            if rule == "merge":
                token = grade(ty.grade)
            elif rule == "unmerge" and ty.kind != "lunit":
                token = VTuple(grade(ty.subs[0].grade),
                               grade(ty.subs[1].grade))
            else:
                token = VUnit()

            def run(env):
                return token
        case "pair" | "tensor" | "cpair":
            a, b = sub(0), sub(1)

            def run(env):
                return VTuple(a(env), b(env))
        case "pi1" | "cpi1" | "pi2" | "cpi2" | "derelict":
            a, k = sub(0), 1 if rule.endswith("2") else 0

            def run(env):
                return a(env).payload[k]
        case "gen":
            a, name = sub(0), t.name
            table = binding.geninterp.get(name)

            def run(env):
                arg = a(env)
                if table is None:
                    raise ModelError(f"binding has no interpretation for"
                                     f" generator {name}")
                return VElem(table[arg.payload[0]])
        case "op":
            name = t.name
            interp = binding.opinterp.get(name)
            args = [sub(i) for i in range(len(node.children))]

            def run(env):
                if interp is None:
                    raise ModelError(f"binding has no interpretation for"
                                     f" operation {name}")
                if isinstance(interp, Value):
                    return interp
                vs = [a(env) for a in args]
                key = tuple(v.payload[0] for v in vs) if len(vs) > 1 \
                    else vs[0].payload[0]
                if key not in interp:
                    raise ModelError(f"opinterp {name}: no entry for {key}")
                return VElem(interp[key])
        case "ret":
            a = sub(0)
            if calc == "lnl":
                def run(env):
                    return VList((a(env).payload[0],))  # a J-tagged value
            elif calc == "armm":
                def run(env):
                    return VT(monad_unit(backend[1], a(env).payload[0]))
            else:
                def run(env):
                    return monad_unit(backend, a(env))
        case "do":
            m, body = sub(0), sub(1)
            if calc == "lnl":
                def run(env):
                    out = []
                    for a in m(env).payload:
                        out.extend(body(env + (VJ(a),)).payload)
                    return VList(out)
            elif calc == "armm":
                def run(env):
                    return VT(monad_bind(
                        backend[1], m(env).payload[0],
                        lambda b: body(env + (VJ(b),)).payload[0]))
            else:
                def run(env):
                    v = monad_bind(backend, m(env),
                                   lambda a: body(env + (a,)))
                    if calc == "gmm":
                        _check_list_bound(v, ty, sig)
                    return v
        case "regrade":
            a = sub(0)
            if calc == "gmm":
                def run(env):
                    v = a(env)
                    _check_list_bound(v, ty, sig)
                    return v  # bounded-list inclusion: identity on elements
            else:
                token = grade(ty.grade)  # linear grade action: retag

                def run(env):
                    a(env)
                    return token
        case "lam" | "limpl" | "lamarrow":
            body = sub(0)
            # enumerated when the node first runs: carrier_values may raise
            dom = functools.cache(lambda: _domain(
                carrier_values(t.tyann, binding, sig)))
            if rule == "lamarrow" and calc == "arrow":
                # the body command has Delta = [x]; its table is keyed by
                # the single binder value
                def image(env, v):
                    return fun_lookup(body(env + (v,)), VTuple(v, VUnit()))
            else:
                def image(env, v):
                    return body(env + (v,))

            def build(env):
                keyed = dom()
                return _table(keyed, [image(env, v) for v in keyed[0]])
            run = _memo(build, sorted(free))
        case "app" | "lapp" | "aapp":
            f, a = sub(0), sub(1)
            if calc == "armm" and rule == "app":
                def run(env):
                    # A => J(B) application lands in B
                    return fun_lookup(f(env), a(env)).payload[0]
            else:
                def run(env):
                    return fun_lookup(f(env), a(env))
        case "rterm" | "jterm" | "kterm":
            a, wrap = sub(0), {"rterm": VWrap, "jterm": VJ, "kterm": VK}[rule]

            def run(env):
                return wrap(a(env))
        case "letj" | "letk" | "letpair":
            a, body, k = sub(0), sub(1), len(node.binders)

            def run(env):
                return body(env + a(env).payload[:k])
        case "letunit":
            a, body = sub(0), sub(1)

            def run(env):
                a(env)
                return body(env)
        case "cmd-ret" | "cmd-app" | "cmd-do":
            table = _memo(_command_table(node, scope, n, binding, sig, sub),
                          sorted(free))

            def run(env):
                if backend[0] != "kleisli":
                    raise ModelError("commands need a kleisli(...) backend")
                return table(env)
        case _:
            def run(env):
                raise ModelError(f"no evaluation clause for rule {rule!r}")
    return run, frozenset(free)


def _check_list_bound(v: Value, ty: TypeExpr, sig: Signature):
    if v.kind == "list" and ty.kind == "tgr":
        m = sig.grading.norm(ty.grade)
        if m.kind == "nat" and len(v.payload) > m.nat:
            raise ModelError(
                f"graded-list invariant broken: length {len(v.payload)}"
                f" exceeds grade {m.nat}")


def _tuple_value(vs):
    out = VUnit()
    for v in reversed(vs):
        out = VTuple(v, out)
    return out


def _command_table(node, scope, n, binding, sig, sub):
    """build(env) for an arrow-calculus command: a table from
    Delta-environments to values of the inner monad (the Kleisli-arrow
    reading of commands).  A Delta environment overrides the Delta slots
    of env before a child runs."""
    delta = node.zones[1]
    # Delta is the root's Delta (or the binder of an arrow abstraction)
    # followed by the binders of the command dos above: nothing else binds
    # between them, so the bound ones hold the top slots, in order
    m = sum(x not in scope for x, _ in delta)
    dslots = [scope[x] for x, _ in delta[:len(delta) - m]] + \
        list(range(n - m, n))

    def with_delta(env, dvals):
        e = list(env)
        for s, v in zip(dslots, dvals):
            e[s] = v
        return tuple(e)

    if node.rule == "cmd-ret":
        a = sub(0, bound=dslots)

        def entry(env, dvals, inner):
            return monad_unit(inner, a(with_delta(env, dvals)))
    elif node.rule == "cmd-app":
        f, a = sub(0), sub(1, bound=dslots)

        def entry(env, dvals, inner):
            return fun_lookup(f(env), a(with_delta(env, dvals)))
    else:
        # the body's Delta is this Delta then its binder (`cmd-do` in
        # typecheck.synth_command), so its table is keyed by (*dvals, b)
        left, right = sub(0), sub(1, bound=dslots)

        def entry(env, dvals, inner):
            e2 = with_delta(env, dvals)
            return monad_bind(
                inner, fun_lookup(left(env), _tuple_value(dvals)),
                lambda b: fun_lookup(right(e2 + (b,)),
                                     _tuple_value((*dvals, b))))

    def tuples():
        spaces = [carrier_values(ty, binding, sig) for _, ty in delta]
        dvals = list(itertools.product(*spaces))
        return dvals, _domain([_tuple_value(d) for d in dvals])
    dom = functools.cache(tuples)

    def build(env):
        dvals, keyed = dom()
        inner = binding.backend[1]
        return _table(keyed, [entry(env, d, inner) for d in dvals])
    return build


# ---------------------------------------------------------------------------
# semantic equality

def env_space(j: Judgement, binding: ModelBinding, sig: Signature,
              grid_exp: int):
    names, spaces = [], []
    for zone in j.zones:
        for x, ty in zone:
            names.append(x)
            vals = carrier_values(ty, binding, sig, grid_exp)
            spaces.append(vals)
    total = 1
    for s in spaces:
        total *= max(1, len(s))
        if total > SWEEP_CAP:
            raise CarrierTooLarge(
                f"environment count exceeds the sweep cap {SWEEP_CAP}")
    for combo in itertools.product(*spaces):
        yield dict(zip(names, combo))


def _grid_exp_for(j1: Judgement, j2: Judgement) -> int:
    degree = syntax.term_size(j1.term) + syntax.term_size(j2.term)
    return max(1, math.ceil(math.log2(degree + 1)))


def semantic_eq(j1: Judgement, j2: Judgement, binding: ModelBinding,
                sig: Signature):
    """Exact validity check: evaluate both sides under every environment.

    Returns (True, None) or (False, witness_env) with the first differing
    environment in the fixed enumeration order.  A `typecheck.Checked`
    side under sig is not checked again.
    """
    if (j1.calculus, j1.form, j1.zones, j1.ty) != \
            (j2.calculus, j2.form, j2.zones, j2.ty):
        raise ModelError("semantic equality needs a shared judgement shape")
    r1, r2 = (j if is_checked(j, sig) else check(j, sig) for j in (j1, j2))
    if not (r1.ok and r2.ok):
        raise ModelError("semantic equality on ill-typed judgements")
    env = _sweep(r1, r2, env_space(j1, binding, sig, _grid_exp_for(j1, j2)),
                 binding, sig)
    return (True, None) if env is None else \
        (False, {k: str(v) for k, v in env.items()})


def _sweep(c1, c2, envs, binding: ModelBinding, sig: Signature):
    """The first of envs under which the checked c1 and c2, of one shape,
    evaluate differently, or None; each derivation is compiled once."""
    names = _root_names(c1)
    run1 = compile_derivation(c1.derivation, names, binding, sig)
    run2 = compile_derivation(c2.derivation, names, binding, sig)
    for env in envs:
        slots = tuple(env[x] for x in names)
        if run1(slots) != run2(slots):
            return env
    return None
