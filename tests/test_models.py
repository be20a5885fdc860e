"""Exact finite backends: dyadic arithmetic, the four evaluators, semantic
equality with environment sweeps, and the restriction-construction oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BARE_DIST_MB, fixture_text
from relmeta import gen as genmod
from relmeta.models import (CarrierTooLarge, Dyadic, ModelError, VDist,
                            VElem, VErr, VFun, VJ, VK, VOk, VTuple, VUnit,
                            carrier_values, eval_term,
                            load_binding, semantic_eq)
from relmeta.signatures import load_signature
from relmeta.syntax import judgement, parse_context, parse_term, parse_type
from relmeta.typecheck import check


def _j(calc, sig, ctx, term, ty, form=None):
    zones = [parse_context(c, sig) for c in ctx] if isinstance(ctx, list) \
        else [parse_context(ctx, sig)]
    return judgement(calc, zones, parse_term(term, calc, sig),
                     parse_type(ty, sig), form=form)


# -- dyadic arithmetic ---------------------------------------------------------

dyadics = st.builds(lambda n, e: Dyadic.make(n, e),
                    st.integers(-64, 64), st.integers(0, 6))


@given(dyadics, dyadics)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dyadic_ring(a, b):
    assert (a + b) - b == a
    assert a * b == b * a
    assert Dyadic.parse(str(a)) == a


@given(dyadics, dyadics, dyadics)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_dyadic_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_dyadic_canonical():
    assert Dyadic.make(2, 1) == Dyadic(1, 0)
    assert Dyadic.make(0, 5) == Dyadic(0, 0)
    assert str(Dyadic.make(3, 2)) == "3/2^2"
    assert Dyadic.parse("1/2") == Dyadic.make(1, 1)
    with pytest.raises(ModelError):
        Dyadic.parse("1/3")


def test_distribution_sums_to_one():
    with pytest.raises(ModelError):
        VDist(((VElem("a"), Dyadic.make(1, 1)),))
    d = VDist(((VElem("a"), Dyadic.make(1, 1)),
               (VElem("b"), Dyadic.make(1, 1)),
               (VElem("c"), Dyadic.make(0, 0))))
    assert len(d.payload) == 2  # zero entries drop from the canonical form


def test_distribution_prints_in_order(coin_sig, dist_binding):
    j = _j("rmm", coin_sig, "", "coin", "T(2)")
    v = eval_term(j, {}, dist_binding, coin_sig)
    assert str(v) == "{ff:1/2^1, tt:1/2^1}"


# -- binding validation --------------------------------------------------------

def test_binding_relation_check(coin_sig):
    with pytest.raises(ModelError) as e:
        load_binding(
            """
            calculus rmm
            backend distribution
            carrier 2 = {tt, ff}
            carrier 4 = {p00, p01, p10, p11}
            interp not = {tt -> tt, ff -> tt}
            opinterp coin = dist{tt:1/2, ff:1/2}
            """, coin_sig)
    assert "relation" in str(e.value)


def test_binding_totality(coin_sig):
    with pytest.raises(ModelError):
        load_binding("calculus rmm\nbackend distribution\n"
                     "carrier 2 = {tt, ff}\ninterp not = {tt -> ff}\n",
                     coin_sig)


# -- coin programs -------------------------------------------------------------

def test_coin_distribution(coin_sig, dist_binding):
    j = _j("rmm", coin_sig, "", "coin", "T(2)")
    v = eval_term(j, {}, dist_binding, coin_sig)
    assert v == VDist(((VElem("tt"), Dyadic.make(1, 1)),
                       (VElem("ff"), Dyadic.make(1, 1))))


def test_two_coin_conjunction(coin_sig, dist_binding):
    j = _j("rmm", coin_sig, "",
           "do x <- coin in do y <- coin in ret and2(x,y)", "T(2)")
    v = eval_term(j, {}, dist_binding, coin_sig)
    assert v == VDist(((VElem("tt"), Dyadic.make(1, 2)),
                       (VElem("ff"), Dyadic.make(3, 2))))


def test_negated_coin(coin_sig, dist_binding):
    j = _j("rmm", coin_sig, "", "do x <- coin in ret not x", "T(2)")
    jc = _j("rmm", coin_sig, "", "coin", "T(2)")
    assert eval_term(j, {}, dist_binding, coin_sig) == \
        eval_term(jc, {}, dist_binding, coin_sig)


def test_stone_semantic_equalities(coin_sig, dist_binding):
    pairs = [
        ("do x <- coin in ret ()", "ret ()", "T(1)"),
        ("do x <- coin in do y <- coin in ret pair2(x,y)",
         "do y <- coin in do x <- coin in ret pair2(x,y)", "T(4)"),
        ("do x <- coin in ret not x", "coin", "T(2)"),
    ]
    for lhs, rhs, ty in pairs:
        eq, w = semantic_eq(_j("rmm", coin_sig, "", lhs, ty),
                            _j("rmm", coin_sig, "", rhs, ty),
                            dist_binding, coin_sig)
        assert eq, (lhs, w)


def test_semantic_refutation_first_witness(coin_sig, dist_binding):
    jl = _j("rmm", coin_sig, "z : J(2)", "ret z", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret not z", "T(2)")
    eq, w = semantic_eq(jl, jr, dist_binding, coin_sig)
    assert not eq and w == {"z": "tt"}


def test_semantic_eq_needs_one_calculus(coin_sig, dist_binding):
    """Two sides of one context, type and form but of two calculi are not
    judgements of one shape, so they are not swept as equal."""
    jl, jr = (_j(calc, coin_sig, "z : J(2)", "ret z", "T(2)")
              for calc in ("rmm", "urmm"))
    with pytest.raises(ModelError, match="shared judgement shape"):
        semantic_eq(jl, jr, dist_binding, coin_sig)


def test_environment_cap(monkeypatch, coin_sig, dist_binding):
    from relmeta import models
    monkeypatch.setattr(models, "SWEEP_CAP", 10 ** 4)
    ctx = ", ".join(f"v{i} : T(4)" for i in range(8))
    jl = _j("rmm", coin_sig, ctx, "ret ()", "T(1)")
    with pytest.raises(CarrierTooLarge):
        semantic_eq(jl, jl, dist_binding, coin_sig)


def test_table_cap_names_itself(gmm_sig):
    """A function space of more than models.TABLE_CAP tables is refused
    with the table cap's own name and value, not the sweep cap's."""
    a = ", ".join(f"a{i}" for i in range(18))
    b = load_binding("calculus gmm\nbackend gradedlist\n"
                     f"carrier A = {{{a}}}\ncarrier B = {{b1, b2}}\n", gmm_sig)
    with pytest.raises(CarrierTooLarge,
                       match=r"2\^18 function tables exceed the table cap "
                             r"200000"):
        carrier_values(parse_type("A -> B", gmm_sig), b, gmm_sig)


# -- exception backend and the restriction oracle -------------------------------

def _direct_exception_eval(term, env, sig, binding):
    """Independent oracle: evaluate through the ordinary exception monad on
    finite sets (structural recursion on terms, not derivations), then read
    the result as a restricted-monad value."""
    k = term.kind
    if k == "var":
        return env[term.name]
    if k == "unit":
        return VUnit()
    if k == "pair":
        return VTuple(_direct_exception_eval(term.subs[0], env, sig, binding),
                      _direct_exception_eval(term.subs[1], env, sig, binding))
    if k == "pi1":
        return _direct_exception_eval(term.subs[0], env, sig, binding).payload[0]
    if k == "pi2":
        return _direct_exception_eval(term.subs[0], env, sig, binding).payload[1]
    if k == "gen":
        v = _direct_exception_eval(term.subs[0], env, sig, binding)
        return VElem(binding.geninterp[term.name][v.payload[0]])
    if k == "ret":
        return VOk(_direct_exception_eval(term.subs[0], env, sig, binding))
    if k == "do":
        mv = _direct_exception_eval(term.subs[0], env, sig, binding)
        if mv.kind == "err":
            return mv
        from relmeta.syntax import bsubst, var
        x = f"_o{len(env)}"
        body = bsubst(term.subs[1], 0, var(x))
        env2 = dict(env)
        env2[x] = mv.payload[0]
        return _direct_exception_eval(body, env2, sig, binding)
    if k == "opapp":
        interp = binding.opinterp[term.name]
        if isinstance(interp, dict):
            args = [_direct_exception_eval(s, env, sig, binding)
                    for s in term.subs]
            key = tuple(a.payload[0] for a in args) if len(args) > 1 \
                else args[0].payload[0]
            return VElem(interp[key])
        return interp
    raise AssertionError(k)


def test_exception_restriction_oracle(rng):
    """Relative-monad evaluation equals direct exception-monad evaluation on
    a generated corpus of terms of size <= 8 over carriers of size <= 3
    (the restriction construction is the identity on values)."""
    sig = load_signature(
        """
        calculus rmm
        object 1o
        object 2
        object 3
        gen not : 2 -> 2
        gen cyc : 3 -> 3
        gen trunc : 3 -> 2
        rel not;not = id_2
        rel cyc;cyc;cyc = id_3
        op coin : () -> T(2)
        """)
    exc = load_binding(
        """
        calculus rmm
        backend exception(boom)
        carrier 1o = {star}
        carrier 2 = {tt, ff}
        carrier 3 = {e0, e1, e2}
        interp not = {tt -> ff, ff -> tt}
        interp cyc = {e0 -> e1, e1 -> e2, e2 -> e0}
        interp trunc = {e0 -> tt, e1 -> ff, e2 -> ff}
        opinterp coin = exc(boom)
        """, sig)
    g = genmod.Gen(rng, sig, "rmm", ["1o", "2", "3"])
    done = 0
    while done < 120:
        ctx = genmod.seeded_context("rmm", ["1o", "2", "3"],
                                    g.gen_context(1))
        ty = g.gen_type(1)
        try:
            t = g.gen_term(ctx, ty, rng.randint(1, 8))
        except ValueError:
            continue
        done += 1
        j = judgement("rmm", [ctx], t, ty)
        spaces = [carrier_values(zty, exc, sig) for _, zty in ctx]
        for combo in itertools.islice(itertools.product(*spaces), 6):
            env = dict(zip((x for x, _ in ctx), combo))
            assert eval_term(j, env, exc, sig) == \
                _direct_exception_eval(t, env, sig, exc)


def test_exception_propagation(coin_sig, exc_binding):
    j = _j("rmm", coin_sig, "", "do x <- coin in ret not x", "T(2)")
    assert eval_term(j, {}, exc_binding, coin_sig) == VErr("boom")


# -- graded lists ---------------------------------------------------------------

def test_graded_list_eval(gmm_sig, glist_binding):
    j = _j("gmm", gmm_sig, "", "do x <- pick in ret x", "T_2(A)")
    v = eval_term(j, {}, glist_binding, gmm_sig)
    assert v.payload == (VElem("a1"), VElem("a2"))


def test_graded_list_concat_bound(gmm_sig, glist_binding):
    j = _j("gmm", gmm_sig, "",
           "do x <- pick in do y <- pick in ret (x,y)", "T_4(A * A)")
    v = eval_term(j, {}, glist_binding, gmm_sig)
    assert len(v.payload) == 4  # lengths multiply within the grade bound


def test_graded_env_enumeration_respects_grades(gmm_sig, glist_binding):
    vals = carrier_values(parse_type("T_2(A)"), glist_binding, gmm_sig)
    assert all(len(v.payload) <= 2 for v in vals)
    assert len(vals) == 1 + 2 + 4


# -- Kleisli arrows --------------------------------------------------------------

def test_arrow_command_tables(arrow_sig, karr_binding):
    j = _j("arrow", arrow_sig, ["f : B ~> B", "w : B"],
           "do y <- f . w in ret y", "B", form="C")
    ftab = VFun(((VElem("b0"), VOk(VElem("b1"))),
                 (VElem("b1"), VErr("boom"))))
    v = eval_term(j, {"f": ftab}, karr_binding, arrow_sig)
    assert v == VFun(((VTuple(VElem("b0"), VUnit()), VOk(VElem("b1"))),
                      (VTuple(VElem("b1"), VUnit()), VErr("boom"))))


def test_arrow_ret_is_constant_arrow(arrow_sig, karr_binding):
    j = _j("arrow", arrow_sig, ["b : B", "d : C"], "ret b", "B", form="C")
    v = eval_term(j, {"b": VElem("b0")}, karr_binding, arrow_sig)
    assert all(out == VOk(VElem("b0")) for _, out in v.payload)


def test_arrow_beta_applied(arrow_sig, karr_binding):
    jl = _j("arrow", arrow_sig, ["", "w : B"],
            "(lamarrow (x:B). ret x) . w", "B", form="C")
    jr = _j("arrow", arrow_sig, ["", "w : B"], "ret w", "B", form="C")
    eq, w = semantic_eq(jl, jr, karr_binding, arrow_sig)
    assert eq, w


def test_throwing_arrow_propagates(arrow_sig, karr_binding):
    jl = _j("arrow", arrow_sig, ["f : B ~> B, g : B ~> B", "w : B"],
            "do x <- f . w in do y <- g . x in ret y", "B", form="C")
    throw = VFun(((VElem("b0"), VErr("boom")), (VElem("b1"), VErr("boom"))))
    ok = VFun(((VElem("b0"), VOk(VElem("b0"))),
               (VElem("b1"), VOk(VElem("b1")))))
    v = eval_term(jl, {"f": throw, "g": ok}, karr_binding, arrow_sig)
    assert all(out == VErr("boom") for _, out in v.payload)


def test_armm_k_values_and_application(arrow_sig, karmm_binding):
    """The three-zone calculus evaluates K(-) and let K(a): a K(B) variable
    ranges over B's elements in K; and its application of u : A => J(B),
    which lands in B."""
    letk = _j("armm", arrow_sig, ["", "", "k : K(B)"],
              "let K(a) = k in (K(a), K(a))", "K(B) * K(B)", form="C")
    pair = _j("armm", arrow_sig, ["", "", "k : K(B)"], "(k, k)",
              "K(B) * K(B)", form="C")
    kb = VK(VElem("b1"))
    assert eval_term(letk, {"k": kb}, karmm_binding, arrow_sig) == \
        VTuple(kb, kb)
    assert semantic_eq(letk, pair, karmm_binding, arrow_sig) == (True, None)
    swap = _j("armm", arrow_sig, ["", "", "k : K(B), h : K(B)"],
              "let K(a) = k in let K(b) = h in K(b)", "K(B)", form="C")
    first = _j("armm", arrow_sig, ["", "", "k : K(B), h : K(B)"], "k",
               "K(B)", form="C")
    assert semantic_eq(swap, first, karmm_binding, arrow_sig) == \
        (False, {"k": "K(b0)", "h": "K(b1)"})
    app = _j("armm", arrow_sig, "f : B => J(B), w : B", "app f w", "B",
            form="A")
    flip = VFun(((VElem("b0"), VJ(VElem("b1"))),
                 (VElem("b1"), VJ(VElem("b0")))))
    assert eval_term(app, {"f": flip, "w": VElem("b0")}, karmm_binding,
                     arrow_sig) == VElem("b1")
    beta = _j("armm", arrow_sig, "w : B", "app (lamarrow (a:B). J(a)) w",
              "B", form="A")
    w = _j("armm", arrow_sig, "w : B", "w", "B", form="A")
    assert semantic_eq(beta, w, karmm_binding, arrow_sig) == (True, None)


def test_an_armm_sweep_ranges_over_the_abstractions_of_a_context_type(
        arrow_sig, karmm_binding):
    """A context variable f : B => J(C) of the three-zone calculus ranges
    over the tables from B to C's elements in J, here the one table under
    karr.mb read as armm, so the sweep of an eta pair covers each w with
    it."""
    table = VFun(((VElem("b0"), VJ(VElem("c0"))),
                  (VElem("b1"), VJ(VElem("c0")))))
    assert carrier_values(parse_type("B => J(C)", arrow_sig), karmm_binding,
                          arrow_sig) == [table]
    ctx = "f : B => J(C), w : B"
    eta = _j("armm", arrow_sig, ctx, "app (lamarrow (a:B). J(app f a)) w",
             "C", form="A")
    app = _j("armm", arrow_sig, ctx, "app f w", "C", form="A")
    assert semantic_eq(eta, app, karmm_binding, arrow_sig) == (True, None)
    assert eval_term(app, {"f": table, "w": VElem("b1")}, karmm_binding,
                     arrow_sig) == VElem("c0")


# -- lattice sweep over distribution-typed variables -----------------------------

def test_monad_laws_over_distribution_variables(coin_sig, dist_binding):
    ctx = "u : T(2), v : T(2)"
    cases = [
        ("do x <- u in ret x", "u", "T(2)"),
        ("do y <- (do x <- u in ret not x) in ret not y", "u", "T(2)"),
    ]
    for lhs, rhs, ty in cases:
        eq, w = semantic_eq(_j("rmm", coin_sig, ctx, lhs, ty),
                            _j("rmm", coin_sig, ctx, rhs, ty),
                            dist_binding, coin_sig)
        assert eq, (lhs, w)
    # and an inequality over the same space is caught
    eq, w = semantic_eq(_j("rmm", coin_sig, ctx, "u", "T(2)"),
                        _j("rmm", coin_sig, ctx, "v", "T(2)"),
                        dist_binding, coin_sig)
    assert not eq


# -- translated-image evaluation (linear tokens) ----------------------------------

def test_lnl_token_evaluation(lnl_sig):
    lb = load_binding("calculus lnl\nbackend gradedlist\n"
                      "carrier A = {a1, a2}\ncarrier B = {b1}\n", lnl_sig)
    j = _j("lnl", lnl_sig, ["f : R(gr(2) -o T(A))", ""],
           "app (derelict f) (merge ((), ()))", "T(A)", form="C")
    # f holds at most two elements; feed it the singleton list [a1, a2]
    from relmeta.models import VGrade, VList, VWrap
    from relmeta.syntax import gnat
    fval = VWrap(VFun(((VGrade(gnat(2)), VList((VElem("a1"),
                                                VElem("a2")))),)))
    # merge ((), ()) produces the grade token 1*1 = 1, not 2: reject
    with pytest.raises(ModelError):
        eval_term(j, {"f": fval}, lb, lnl_sig)
    j2 = _j("lnl", lnl_sig, ["f : R(gr(2) -o T(A))", "s : gr(2)"],
            "app (derelict f) s", "T(A)", form="C")
    v = eval_term(j2, {"f": fval, "s": VGrade(gnat(2))}, lb, lnl_sig)
    assert v == VList((VElem("a1"), VElem("a2")))


def test_lnl_rejects_outside_fragment(lnl_sig):
    lb = load_binding("calculus lnl\nbackend gradedlist\n"
                      "carrier A = {a1}\n", lnl_sig)
    with pytest.raises(ModelError):
        carrier_values(parse_type("T(A)"), lb, lnl_sig)


# -- the compiled evaluator: memoized tables, one compilation per sweep ---------

def _curried_tables(lnl_sig):
    lb = load_binding("calculus lnl\nbackend gradedlist\n"
                      "carrier A = {a1, a2, a3}\n", lnl_sig)
    j = _j("lnl", lnl_sig, "", "lam (x:A). lam (y:A). (y, x)",
           "A -> A -> A * A", form="A")
    v = eval_term(j, {}, lb, lnl_sig)
    elems = [VElem(e) for e in ("a1", "a2", "a3")]
    assert v == VFun(tuple((x, VFun(tuple((y, VTuple(y, x)) for y in elems)))
                           for x in elems))
    assert len({inner for _, inner in v.payload}) == 3


def test_inner_table_follows_the_outer_binder(lnl_sig):
    """The inner lam's table is memoized on its free variable x, so each
    value of x gets its own table."""
    _curried_tables(lnl_sig)


def test_memo_starts_over_when_full(lnl_sig, monkeypatch):
    """A memo that reaches MEMO_CAP tables is cleared, and the tables built
    after that are still right."""
    from relmeta import models
    monkeypatch.setattr(models, "MEMO_CAP", 1)
    _curried_tables(lnl_sig)


def test_no_state_leaks_between_calls(coin_sig, dist_binding, exc_binding):
    """One judgement evaluated under two bindings, and under two
    environments, gives each its own value."""
    j = _j("rmm", coin_sig, "", "do x <- coin in ret not x", "T(2)")
    half = VDist(((VElem("tt"), Dyadic.make(1, 1)),
                  (VElem("ff"), Dyadic.make(1, 1))))
    for _ in range(2):
        assert eval_term(j, {}, dist_binding, coin_sig) == half
        assert eval_term(j, {}, exc_binding, coin_sig) == VErr("boom")
    jz = _j("rmm", coin_sig, "z : J(2)", "ret not z", "T(2)")
    for z, out in (("tt", "ff"), ("ff", "tt"), ("tt", "ff")):
        assert eval_term(jz, {"z": VElem(z)}, exc_binding, coin_sig) == \
            VOk(VElem(out))


def test_model_errors_keep_their_messages(coin_sig, gmm_sig, lnl_sig):
    jz = _j("rmm", coin_sig, "z : J(2)", "ret not z", "T(2)")
    dist = load_binding(fixture_text("dist.mb"), coin_sig)
    with pytest.raises(ModelError, match="environment missing 'z'"):
        eval_term(jz, {}, dist, coin_sig)
    bare = load_binding("calculus rmm\nbackend distribution\n"
                        "carrier 2 = {tt, ff}\n", coin_sig)
    with pytest.raises(ModelError, match="no interpretation for generator"
                                         " not"):
        eval_term(jz, {"z": VElem("tt")}, bare, coin_sig)
    jc = _j("rmm", coin_sig, "", "coin", "T(2)")
    with pytest.raises(ModelError, match="no interpretation for operation"
                                         " coin"):
        eval_term(jc, {}, bare, coin_sig)
    long = load_binding("calculus gmm\nbackend gradedlist\n"
                        "carrier A = {a1, a2}\n"
                        "opinterp pick = list[a1, a2, a1]\n", gmm_sig)
    jg = _j("gmm", gmm_sig, "", "do x <- pick in ret x", "T_2(A)")
    with pytest.raises(ModelError, match="length 3 exceeds grade 2"):
        eval_term(jg, {}, long, gmm_sig)


def test_semantic_eq_compiles_each_side_once(coin_sig, dist_binding,
                                             monkeypatch):
    from relmeta import models
    compiled, envs = [], []
    real_compile, real_envs = models.compile_derivation, models.env_space

    def counting_compile(node, *args):
        compiled.append(node.term)
        return real_compile(node, *args)

    def counting_envs(*args, **kwargs):
        for env in real_envs(*args, **kwargs):
            envs.append(env)
            yield env
    monkeypatch.setattr(models, "compile_derivation", counting_compile)
    monkeypatch.setattr(models, "env_space", counting_envs)
    jl = _j("rmm", coin_sig, "u : T(2), v : T(2)",
            "do x <- u in do y <- v in ret and2(x, y)", "T(2)")
    jr = _j("rmm", coin_sig, "u : T(2), v : T(2)",
            "do y <- v in do x <- u in ret and2(x, y)", "T(2)")
    eq, _ = semantic_eq(jl, jr, dist_binding, coin_sig)
    assert eq and len(envs) > 100
    assert compiled == [jl.term, jr.term]
