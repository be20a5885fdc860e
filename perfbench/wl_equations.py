"""equations: one check_eq per pair given as text, parse included.

Two parts.  Closed coin-theory programs: 1-4 `coin` binds in permuted
order, continuations built from pair2/and2/not; each verdict is compared
with an enumeration of all 2^k coin outcomes through the tables below,
which make no relmeta call.  Schema instances of the core (rmm, over the
coin theory) and graded (gmm) equations: theorems, so never REFUTED.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from relmeta import equations, gen, models, signatures, syntax

from common import (Item, fixture_text, proof_replays, verdict_record,
                    witness_replays)

# coin pairs per number of binds (1-4), split by how the right side's
# continuation relates to the left's: the same, the same with and2
# arguments swapped, or freshly drawn.  Fixed counts keep the mix of cheap
# (PROVEN by normalization) and expensive (search, then a model sweep)
# pairs the same for every seed.
COIN_MIX = {"same": 6, "commuted": 3, "fresh": 6}
# Pairs with 3 or 4 binds hold the tail and most of a pass's time, and one
# may cost ten times another of its stratum, so seeded ones moved the
# throughput and the tail by 20-25% from seed to seed.  They are drawn with
# a fixed rng; the seed draws the pairs with 1 or 2 binds and the schema
# instances, which hold the median.
FIXED_FROM_K = 3
COIN_RNG_SEED = 0
RMM_CALLS = 30   # each call yields one instance of every core schema (8)
GMM_CALLS = 30   # each call yields one instance of every graded schema (9)

GMM_SIG = "calculus gmm\nobject A\nobject B\ngrading builtin mult\n" \
          "op pick : () -> T_2(A)\n"
GMM_MODEL = "calculus gmm\nbackend gradedlist\ncarrier A = {a1, a2}\n" \
            "carrier B = {b1}\nopinterp pick = list[a1, a2]\n"

# the coin theory's interpretation, written out for the oracle
NOT = {"tt": "ff", "ff": "tt"}
AND2 = {("tt", "tt"): "tt", ("tt", "ff"): "ff", ("ff", "tt"): "ff",
        ("ff", "ff"): "ff"}
PAIR2 = {("tt", "tt"): "p11", ("tt", "ff"): "p10", ("ff", "tt"): "p01",
         ("ff", "ff"): "p00"}


class Ctx:
    def __init__(self, sigs, models_by_sig):
        self.sigs = sigs
        self.models = models_by_sig


def setup() -> Ctx:
    coin = signatures.load_signature(fixture_text("coin.sig"))
    dist = models.load_binding(fixture_text("dist.mb"), coin)
    gmm = signatures.load_signature(GMM_SIG)
    glist = models.load_binding(GMM_MODEL, gmm)
    return Ctx({"coin": coin, "gmm": gmm},
               {"coin": [("dist", dist)], "gmm": [("gl", glist)]})


# -- coin programs ------------------------------------------------------------

def _bexpr(rng, names, depth):
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return ("var", rng.choice(names))
    if r < 0.65:
        return ("not", _bexpr(rng, names, depth - 1))
    return ("and2", _bexpr(rng, names, depth - 1),
            _bexpr(rng, names, depth - 1))


def _commuted(e):
    """An expression equal to e in every outcome: and2 arguments swapped."""
    if e[0] == "and2":
        return ("and2", _commuted(e[2]), _commuted(e[1]))
    if e[0] == "not":
        return ("not", _commuted(e[1]))
    return e


def _btext(e):
    if e[0] == "var":
        return e[1]
    if e[0] == "not":
        inner = _btext(e[1])
        return "not " + (inner if e[1][0] == "var" else f"({inner})")
    return f"and2({_btext(e[1])}, {_btext(e[2])})"


def _beval(e, env):
    if e[0] == "var":
        return env[e[1]]
    if e[0] == "not":
        return NOT[_beval(e[1], env)]
    return AND2[(_beval(e[1], env), _beval(e[2], env))]


def _program_text(order, cont):
    if cont[0] == "pair2":
        body = f"ret pair2({_btext(cont[1])}, {_btext(cont[2])})"
    else:
        body = f"ret {_btext(cont[1])}"
    for x in reversed(order):
        body = f"do {x} <- coin in {body}"
    return body


def _distribution(order, cont):
    """Output distribution over all 2^k equiprobable coin outcomes."""
    k = len(order)
    out = {}
    for bits in itertools.product(("tt", "ff"), repeat=k):
        env = dict(zip(order, bits))
        if cont[0] == "pair2":
            v = PAIR2[(_beval(cont[1], env), _beval(cont[2], env))]
        else:
            v = _beval(cont[1], env)
        out[v] = out.get(v, 0) + Fraction(1, 2 ** k)
    return out


def _coin_pair(rng, k, relation, pair2):
    names = [f"x{i}" for i in range(1, k + 1)]
    if pair2:
        cont = ("pair2", _bexpr(rng, names, 2), _bexpr(rng, names, 2))
    else:
        cont = ("bool", _bexpr(rng, names, 2))
    if relation == "same":
        other = cont
    elif relation == "commuted":
        other = (cont[0],) + tuple(_commuted(e) for e in cont[1:])
    elif pair2:
        other = ("pair2", _bexpr(rng, names, 2), _bexpr(rng, names, 2))
    else:
        other = ("bool", _bexpr(rng, names, 2))
    rorder = list(names)
    rng.shuffle(rorder)
    expect = "equal" if _distribution(names, cont) == \
        _distribution(rorder, other) else "differ"
    ty = "T(4)" if pair2 else "T(2)"
    return Item(f"coin.k{k}.{relation}", ("coin", "rmm", "",
                                          _program_text(names, cont),
                                          _program_text(rorder, other), ty),
                expect)


# -- schema instances ---------------------------------------------------------

def _schema_items(rng, ctx, calc, sigkey, objects, make, calls):
    sig = ctx.sigs[sigkey]
    out = []
    for _ in range(calls):
        for name, jl, jr in make(rng, sig, objects):
            zone = ", ".join(f"{x} : {syntax.type_to_text(t)}"
                             for x, t in jl.zones[0])
            out.append(Item(f"{calc}.{name}", (
                sigkey, calc, zone, syntax.term_to_text(jl.term),
                syntax.term_to_text(jr.term), syntax.type_to_text(jl.ty)),
                "theorem"))
    return out


def corpus(ctx: Ctx, rng) -> list[Item]:
    coin_rng = random.Random(COIN_RNG_SEED)
    items = [_coin_pair(rng if k < FIXED_FROM_K else coin_rng, k, relation,
                        i % 2 == 1)
             for k in range(1, 5) for relation, n in COIN_MIX.items()
             for i in range(n)]
    items += _schema_items(rng, ctx, "rmm", "coin", ["2", "4"],
                           gen.rmm_schema_instances, RMM_CALLS)
    items += _schema_items(rng, ctx, "gmm", "gmm", ["A", "B"],
                           gen.gmm_schema_instances, GMM_CALLS)
    return items


# -- run, record, validate ----------------------------------------------------

def run(ctx: Ctx, item: Item):
    sigkey, calc, zone_text, lhs, rhs, ty_text = item.payload
    sig = ctx.sigs[sigkey]
    zone = syntax.parse_context(zone_text, sig)
    ty = syntax.parse_type(ty_text, sig)
    jl = syntax.judgement(calc, [zone], syntax.parse_term(lhs, calc, sig), ty)
    jr = syntax.judgement(calc, [zone], syntax.parse_term(rhs, calc, sig), ty)
    return jl, jr, equations.check_eq(jl, jr, sig, ctx.models[sigkey])


def record(outcome) -> str:
    return verdict_record(outcome[2])


def statuses(outcome) -> list[str]:
    return [outcome[2].status]


def validate(ctx: Ctx, item: Item, outcome) -> str | None:
    jl, jr, v = outcome
    sigkey = item.payload[0]
    sig = ctx.sigs[sigkey]
    if item.expect == "equal" and v.status == "REFUTED":
        return "equal distributions REFUTED"
    if item.expect == "differ" and v.status != "REFUTED":
        return f"different distributions {v.status}"
    if item.expect == "theorem" and v.status == "REFUTED":
        return "schema instance REFUTED"
    bad = proof_replays(equations, v, jl, jr, sig)
    if bad is None and v.status == "REFUTED":
        binding = dict(ctx.models[sigkey])[v.model]
        bad = witness_replays(models, v, jl, jr, binding, sig)
    return bad
