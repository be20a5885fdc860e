"""Normalization, the three-valued equality procedure, and proof replay."""

import collections
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (BARE_DIST_MB, EXC_MB, accepted_golden_judgements,
                      fixture_path, fixture_text)
from relmeta import equations, gen as genmod, models, rules, typecheck
from relmeta.cli import load_eq_file
from relmeta.equations import (BudgetExceeded, EqProof, EqVerdict, Step,
                               check_eq, check_proof, normalize, parse_proof)
from relmeta.rules import RULES, RuleCtx, RuleIndex
from relmeta.signatures import load_signature
from relmeta.syntax import (alpha_eq, base, judgement, parse_context,
                            parse_term, parse_type, positions, replace_at,
                            subterm_at, term_to_text)
from relmeta.translate import arrow_to_armm, gmm_to_lnl
from relmeta.typecheck import check, check_at, serialize_derivation


def _j(calc, sig, ctx, term, ty, form=None):
    return judgement(calc, [parse_context(c, sig) for c in ctx] if
                     isinstance(ctx, list) else [parse_context(ctx, sig)],
                     parse_term(term, calc, sig), parse_type(ty, sig),
                     form=form)


# -- normalization ------------------------------------------------------------

def test_left_unit(coin_sig):
    j = _j("rmm", coin_sig, "y : J(2)", "do x <- ret y in ret not x", "T(2)")
    res = normalize(j, coin_sig)
    assert term_to_text(res.term) == "ret not y"
    assert [s.name for s in res.steps] == ["do.beta"]


def test_right_unit_and_assoc(coin_sig):
    j = _j("rmm", coin_sig, "u : T(2)",
           "do z <- (do x <- u in ret not x) in ret z", "T(2)")
    res = normalize(j, coin_sig)
    assert term_to_text(res.term) == "do x <- u in ret not x"


def test_projection_laws(coin_sig):
    j = _j("rmm", coin_sig, "x : J(2)", "pi1 (x, coin)", "J(2)")
    assert term_to_text(normalize(j, coin_sig).term) == "x"
    j = _j("rmm", coin_sig, "p : J(2) * T(2)", "(pi1 p, pi2 p)",
           "J(2) * T(2)")
    assert term_to_text(normalize(j, coin_sig).term) == "p"


def test_unit_eta(coin_sig):
    j = _j("rmm", coin_sig, "p : 1 * 1", "pi1 p", "1")
    assert normalize(j, coin_sig).term.kind == "unit"


def test_gen_word_collapse(coin_sig):
    j = _j("rmm", coin_sig, "x : J(2)", "not not x", "J(2)")
    assert term_to_text(normalize(j, coin_sig).term) == "x"


def test_assoc_right_nesting(coin_sig):
    j = _j("rmm", coin_sig, "u : T(2)",
           "do z <- (do y <- u in ret not y) in coin", "T(2)")
    nf = normalize(j, coin_sig).term
    assert nf.kind == "do"
    assert nf.subs[0].kind != "do"  # right-nested


def test_graded_normalization(gmm_sig):
    j = _j("gmm", gmm_sig, "u : T_2(A)",
           "do x <- regrade<3>=2> u in regrade<2>=1> ret x", "T_6(A)")
    res = normalize(j, gmm_sig)
    # regrades hoist out, the unit law collapses the bind, stacks compose
    assert term_to_text(res.term) == "regrade<6>=2> u"
    j2 = _j("gmm", gmm_sig, ["u : T_2(A), f : T_3(B)"],
            "do x <- regrade<3>=2> u in regrade<4>=3> f", "T_12(B)")
    res2 = normalize(j2, gmm_sig)
    assert res2.term.kind == "regrade"
    assert res2.term.subs[0].kind == "do"
    assert str(res2.term.xi) == "12>=6"


def test_lnl_commuting(lnl_sig):
    # the let hoists out of the bind scrutinee; ret then pops outward
    j = _j("lnl", lnl_sig, ["", "u : I, x : J(A)"],
           "do y <- (let () = u in ret x) in ret y", "T(A)", form="C")
    res = normalize(j, lnl_sig)
    assert term_to_text(res.term) == "ret (let () = u in x)"
    # hoisting out of an application's function position
    j2 = _j("lnl", lnl_sig, ["", "u : I, f : J(A) -o T(A), x : J(A)"],
            "app (let () = u in f) x", "T(A)", form="C")
    assert term_to_text(normalize(j2, lnl_sig).term) == \
        "let () = u in app f x"


def test_lnl_grade_programs(lnl_sig):
    # splitting off a unit grade is the identity
    j = _j("lnl", lnl_sig, ["", "w : gr(1 * 2)"],
           "let (s,r) = unmerge w in (let () = unmerge s in r)", "gr(2)",
           form="C")
    assert term_to_text(normalize(j, lnl_sig).term) == "w"
    j = _j("lnl", lnl_sig, ["", "w : gr(2 * 3)"],
           "let (s,r) = unmerge w in (r, s)", "gr(3) * gr(2)", form="C")
    assert term_to_text(normalize(j, lnl_sig).term) == "unmerge w"
    j = _j("lnl", lnl_sig, ["", "w : gr(2 * 3)"], "merge unmerge w",
           "gr(6)", form="C")
    assert term_to_text(normalize(j, lnl_sig).term) == "w"


def test_armm_rules():
    sig = load_signature("calculus armm\nobject B\n")
    j = _j("armm", sig, ["", "w : B", ""],
           "(lamarrow (a:B). ret J(a)) . w", "T(B)", form="C")
    assert term_to_text(normalize(j, sig).term) == "ret J(w)"
    j = _j("armm", sig, ["u : B => T(B)"], "lamarrow (a:B). u . a",
           "B => T(B)", form="A")
    assert term_to_text(normalize(j, sig).term) == "u"
    j = _j("armm", sig, ["", "", "t : J(B)"],
           "let J(a) = t in J(a)", "J(B)", form="C")
    assert term_to_text(normalize(j, sig).term) == "t"
    # there is no let/ret commuting conversion in the three-zone theory:
    # this term is already normal
    j = _j("armm", sig, ["", "", "t : J(B)"],
           "let J(a) = t in ret J(a)", "T(B)", form="C")
    assert term_to_text(normalize(j, sig).term) == "let J(a) = t in ret J(a)"


def test_armm_let_exchange_orients():
    sig = load_signature("calculus armm\nobject B\n")
    # independent K-let hoists over a J-let (fixed kind priority)
    j = _j("armm", sig, ["k : B", "d : B", "t : J(B) * K(B)"],
           "let J(a) = pi1 t in (let K(b) = pi2 t in ret J((a, b)))",
           "T(B * B)", form="C")
    nf = normalize(j, sig).term
    assert nf.kind == "letj"  # letj has higher priority: letpair/K float out
    # and the exchange terminates (no ping-pong): normalize twice agrees
    j2 = judgement("armm", j.zones, nf, j.ty, form="C")
    assert alpha_eq(normalize(j2, sig).term, nf)


def test_budget_exceeded(coin_sig):
    j = _j("rmm", coin_sig, "u : T(2)",
           "do z <- (do y <- u in ret not y) in coin", "T(2)")
    with pytest.raises(BudgetExceeded):
        normalize(j, coin_sig, budget=1)


# -- checkEq ------------------------------------------------------------------

def test_reflexivity(coin_sig):
    j = _j("rmm", coin_sig, "", "coin", "T(2)")
    assert check_eq(j, j, coin_sig).status == "PROVEN"


def test_stone_equations_proven(coin_sig, dist_binding):
    for lhs, rhs, ty in [
        ("do x <- coin in ret ()", "ret ()", "T(1)"),
        ("do x <- coin in do y <- coin in ret pair2(x,y)",
         "do y <- coin in do x <- coin in ret pair2(x,y)", "T(4)"),
        ("do x <- coin in ret not x", "coin", "T(2)"),
    ]:
        jl = _j("rmm", coin_sig, "", lhs, ty)
        jr = _j("rmm", coin_sig, "", rhs, ty)
        v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
        assert v.status == "PROVEN"
        assert check_proof(v.proof, jl, jr, coin_sig)


def test_dropping_idempotence_axiom(coin_sig, dist_binding):
    import copy
    weak = copy.deepcopy(coin_sig)
    weak.theory.axioms = [ax for ax in weak.theory.axioms
                          if ax.name != "ax1"]
    jl = _j("rmm", weak, "", "do x <- coin in ret ()", "T(1)")
    jr = _j("rmm", weak, "", "ret ()", "T(1)")
    v = check_eq(jl, jr, weak, [("dist", dist_binding)])
    assert v.status in ("UNKNOWN", "REFUTED")
    assert v.status == "UNKNOWN"  # the model validates the equation


def test_refutation_with_witness(coin_sig, dist_binding):
    jl = _j("rmm", coin_sig, "z : J(2)", "do x <- coin in ret x", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret z", "T(2)")
    v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    assert v.status == "REFUTED"
    assert v.model == "dist"
    assert v.witness == {"z": "tt"}


def test_unknown_carries_normal_forms(coin_sig):
    jl = _j("rmm", coin_sig, "z : J(2)", "do x <- coin in ret x", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret z", "T(2)")
    v = check_eq(jl, jr, coin_sig)
    assert v.status == "UNKNOWN"
    assert v.lhs_nf is not None and v.rhs_nf is not None


# -- proof objects -------------------------------------------------------------

def test_proof_rendering_and_parsing(coin_sig):
    jl = _j("rmm", coin_sig, "y : J(2)", "do x <- ret y in ret not x",
            "T(2)")
    jr = _j("rmm", coin_sig, "y : J(2)", "ret not y", "T(2)")
    v = check_eq(jl, jr, coin_sig)
    text = v.proof.render()
    reparsed = parse_proof(text, coin_sig, "rmm")
    assert check_proof(reparsed, jl, jr, coin_sig)


def test_proof_wrong_position_fails(coin_sig):
    jl = _j("rmm", coin_sig, "y : J(2)", "do x <- ret y in ret not x",
            "T(2)")
    jr = _j("rmm", coin_sig, "y : J(2)", "ret not y", "T(2)")
    bad = EqProof((Step("do.beta", (0,)),))
    assert not check_proof(bad, jl, jr, coin_sig)


@pytest.mark.parametrize("step", ["do.assoc at 7.3 fwd", "ax3 at 9.9 lr bwd"])
def test_a_step_at_no_position_does_not_replay(step, coin_sig):
    """A rule step or an axiom step whose path is not a position of the
    term is a step that does not apply: the proof does not replay."""
    ctx = "w : J(2)"
    jl = _j("rmm", coin_sig, ctx, "do x <- (do y <- coin in ret not y) in"
            " ret pi1 (pair2(x, w), x)", "T(4)")
    jr = _j("rmm", coin_sig, ctx, "do y <- coin in do x <- ret not y in"
            " ret pair2(x, w)", "T(4)")
    proof = parse_proof(step, coin_sig, "rmm")
    assert not check_proof(proof, jl, jr, coin_sig)


def test_axiom_proof_with_substitution(store_sig):
    jl = _j("rmm", store_sig, "a : J(Atom), b : J(Val)",
            "do z <- assign(a,b) in lookup(a)", "T(Val)")
    jr = _j("rmm", store_sig, "a : J(Atom), b : J(Val)",
            "do z <- assign(a,b) in ret b", "T(Val)")
    proof = parse_proof("ax1 at root with {x := a, y := b} lr fwd",
                        store_sig, "rmm")
    assert check_proof(proof, jl, jr, store_sig)
    wrong = parse_proof("ax1 at root with {x := b, y := a} lr fwd",
                        store_sig, "rmm")
    assert not check_proof(wrong, jl, jr, store_sig)


# -- local store ---------------------------------------------------------------

def test_local_store_suite(store_sig):
    """The store theory loads with its axioms (they type-check at load
    time), and each fixture equation pair is proven from them."""
    assert store_sig.theory is not None and len(store_sig.theory.axioms) >= 2
    statuses = [(name, check_eq(*load_eq_file(fixture_path(name), store_sig),
                                store_sig).status)
                for name in ("store_d1.eq", "store_d2.eq")]
    assert all(s == "PROVEN" for _, s in statuses), statuses


def test_the_search_meets_at_its_breadth_cut(monkeypatch, store_sig):
    """A term the search adds as it reaches its breadth is still met
    against the other side: with one term kept a side, store_d1 is proven
    by the proof it gets at the full breadth, and the proof replays."""
    monkeypatch.setattr(equations, "BREADTH", 1)
    jl, jr = load_eq_file(fixture_path("store_d1.eq"), store_sig)
    v = check_eq(jl, jr, store_sig)
    assert v.status == "PROVEN"
    assert v.proof.render().splitlines() == [
        "do.eta at 1 fwd", "ax1 at root with {x := x, y := y} rl bwd"]
    assert check_proof(v.proof, jl, jr, store_sig)


# -- confluence smoke (small; the full 1000-term sweep runs in acceptance) ----

def test_confluence_smoke_small(sweep_sig, rng):
    g = genmod.Gen(rng, sweep_sig, "rmm", ["1o", "2"])
    done = 0
    while done < 60:
        ctx = genmod.seeded_context("rmm", ["1o", "2"], g.gen_context(1))
        ty = g.gen_type(1)
        try:
            t = g.gen_term(ctx, ty, rng.randint(2, 10))
        except ValueError:
            continue
        done += 1
        j = judgement("rmm", [ctx], t, ty)
        base = normalize(j, sweep_sig).term
        for k in range(3):
            alt = normalize(j, sweep_sig,
                            rng=random.Random(1000 * done + k)).term
            assert alpha_eq(alt, base), term_to_text(t)


def test_subject_reduction_enforced(coin_sig):
    # normalize checks every step's result; a well-typed start cannot break
    j = _j("rmm", coin_sig, "u : T(2) * T(2)",
           "do x <- pi1 u in do y <- pi2 u in ret pair2(x,y)", "T(4)")
    normalize(j, coin_sig)


# -- one typecheck per rewrite step --------------------------------------------

def _count_checks(monkeypatch, local=None):
    """Record the term of every judgement the step engine type-checks: in
    full, and locally where the local check decides (a local check that
    leaves the decision to a full check counts as that full check).  The
    terms decided locally also go to `local`, if given."""
    seen = []

    def counting(j, sig, **kw):
        seen.append(j.term)
        return check(j, sig, **kw)

    def counting_at(checked, path, term):
        out = check_at(checked, path, term)
        if out is not None:
            seen.append(term)
            if local is not None:
                local.append(seen[-1])
        return out

    monkeypatch.setattr(equations, "check", counting)
    monkeypatch.setattr(equations, "check_at", counting_at)
    return seen


def test_normalize_checks_each_judgement_once(coin_sig, monkeypatch):
    j = _j("rmm", coin_sig, "y : J(2), u : T(2)",
           "do z <- (do x <- ret y in do w <- u in ret not not x) in ret z",
           "T(2)")
    local = []
    seen = _count_checks(monkeypatch, local)
    res = normalize(j, coin_sig)
    assert len(res.steps) >= 3
    assert len(seen) == len(res.steps) + 1
    assert len(set(seen)) == len(seen)
    assert local  # the steps' checks are local where they can be


def test_check_proof_threads_checks(coin_sig, monkeypatch):
    jl = _j("rmm", coin_sig, "y : J(2), u : T(2)",
            "do x <- ret y in do w <- u in ret not not x", "T(2)")
    jr = _j("rmm", coin_sig, "y : J(2), u : T(2)",
            "do z <- (do w <- u in ret y) in ret z", "T(2)")
    proof = check_eq(jl, jr, coin_sig).proof
    assert len(proof.steps) >= 3
    assert {s.kind for s in proof.steps} == {"rule"}
    assert {s.orientation for s in proof.steps} == {"fwd", "bwd"}
    local = []
    seen = _count_checks(monkeypatch, local)
    assert check_proof(proof, jl, jr, coin_sig)
    assert len(seen) <= len(proof.steps) + 2
    assert not local  # proof replay checks every term in full


@pytest.mark.parametrize("lhs, rhs", [
    # the right side is the left side's normal form
    ("do x <- ret y in do w <- u in ret not not x", "do w <- u in ret y"),
    # the two sides normalize through a common term
    ("do x <- ret y in do w <- u in ret not not x",
     "do x <- ret y in do w <- u in ret x"),
    # an axiom search: renormalizations reach terms checked before
    ("do x <- coin in do w <- u in ret not x", "do w <- u in coin"),
])
def test_check_eq_checks_each_term_once(coin_sig, monkeypatch, lhs, rhs):
    jl = _j("rmm", coin_sig, "y : J(2), u : T(2)", lhs, "T(2)")
    jr = _j("rmm", coin_sig, "y : J(2), u : T(2)", rhs, "T(2)")
    seen = _count_checks(monkeypatch)
    check_eq(jl, jr, coin_sig)
    assert len(set(seen)) == len(seen)


def test_derivation_nodes_are_the_term_positions():
    """The derivation the engine reads has one node per term position, in
    `positions` order, each holding the subterm at that position and its
    occurrences, and the form, type, zones and expected type that a check
    of the judgement finds and is given there, with the names of the
    binders in force there; for all six calculi."""
    calculi = set()
    for name, j, sig in accepted_golden_judgements():
        c = equations._enter(j, equations._Checks(sig))
        nodes = list(equations._positions(c))
        assert [path for path, _, _ in nodes] == positions(j.term), name
        d = check(j, sig).derivation
        for path, sub, node in nodes:
            other, in_force, names = d, (), ()
            for i in path:
                other, in_force = other.children[i], \
                    other.child_names(i, in_force)
            ours = c.derivation
            for i in path:
                ours, names = ours.children[i], ours.child_names(i, names)
            assert ours is node
            assert sub is subterm_at(j.term, path) is node.term
            assert len(node.children) == len(sub.subs)
            assert (node.form, node.ty, node.zones, node.expect, names,
                    node.term.occ) == \
                (other.form, other.ty, other.zones, other.expect, in_force,
                 sub.occ)
        assert c.derivation.expect == j.ty  # the root's, against its type
        calculi.add(j.calculus)
    assert calculi == {"urmm", "rmm", "gmm", "lnl", "arrow", "armm"}


# -- local subject-reduction checks --------------------------------------------

def test_a_failed_local_check_leaves_the_step_to_the_full_check(coin_sig):
    """A replacement with the node's occurrences whose local synthesis
    fails gives no Checked, and the step's check is then the full check,
    whose message the engine reports."""
    c = check(_j("rmm", coin_sig, "z : J(2)", "ret z", "T(2)"), coin_sig)
    bad = parse_term("pi1 z", "rmm", coin_sig)
    assert bad.occ == c.term.subs[0].occ
    assert check_at(c, (0,), replace_at(c.term, (0,), bad)) is None
    assert equations._Checks(coin_sig).at(c, (0,), bad) == \
        "projection of a non-product"


def _nodes(d, path=()):
    """Each node of a derivation with its path, in preorder, as comparable
    values: rule, judgement, binder names, expected type, occurrences."""
    out = [(path, d.rule, (d.calculus, d.form, d.zones, d.term, d.ty),
            d.binders, d.expect, d.term.occ)]
    for i, c in enumerate(d.children):
        out += _nodes(c, path + (i,))
    return out


def _differential(monkeypatch):
    """Check every step result the engine checks locally in full as well:
    where the local check decides, its spliced derivation must be the full
    check's, node for node with binder names and expected types, and print
    as it does, and the full check must accept.  Returns the count of
    (calculus, decided locally) over the calls."""
    counts = collections.Counter()

    def both(checked, path, term):
        out = check_at(checked, path, term)
        full = check(checked.with_term(term), checked.sig)
        if out is not None:
            assert full.ok, full.message
            assert out.with_term(out.term) == full.with_term(full.term)
            assert _nodes(out.derivation) == _nodes(full.derivation)
            assert out.derivation == full.derivation
            assert serialize_derivation(out.derivation) == \
                serialize_derivation(full.derivation)
        counts[checked.calculus, out is not None] += 1
        return out

    monkeypatch.setattr(equations, "check_at", both)
    return counts


def _rewrite_everything(j, sig):
    """The engine's rewrites from j: its normalization, and one search layer
    (axiom and search-only moves, each renormalized) from j and from its
    normal form."""
    axioms = sig.theory.axioms if sig.theory else []
    checks = equations._Checks(sig)
    c = equations._enter(j, checks)
    nf = normalize(c, sig, checks=checks)
    equations._expand(c, checks, axioms, 10000)
    equations._expand(equations._enter(j.with_term(nf.term), checks),
                      checks, axioms, 10000)


def _generated(rng, sig, calc, objects, n):
    g = genmod.Gen(rng, sig, calc, objects)
    out = []
    while len(out) < n:
        ctx = genmod.seeded_context(calc, objects, g.gen_context(1))
        if calc == "arrow" and rng.random() < 0.5:
            delta = (("w", base(objects[0])),)
            ty = base(rng.choice(objects))
            t = g.gen_command(ctx, delta, ty, rng.randint(1, 8))
            out.append(judgement(calc, [ctx, delta], t, ty, form="C"))
            continue
        ty = g.gen_type(2 if calc != "rmm" else 1)
        try:
            t = g.gen_term(ctx, ty, rng.randint(2, 10))
        except ValueError:
            continue
        out.append(judgement(calc, [ctx], t, ty,
                             form="A" if calc == "arrow" else None))
    return out


def test_spliced_derivation_equals_a_full_checks(coin_sig, sweep_sig,
                                                 gmm_plain_sig, lnl_sig,
                                                 arrow_sig, monkeypatch):
    """Every local check of an engine rewrite gives the derivation a full
    check of the result gives: on the accepted goldens, on generated terms
    and on their gmm -> lnl and arrow -> armm translations, in all six
    calculi (`gen.Gen` makes no unary terms, so those are written out, as
    is an LNL step that writes a grade another way: regrade.id turns
    `regrade<6>=6> w` of type gr(6) into w of type gr(2 * 3))."""
    rng = random.Random(20240811)
    corpus = [(j, sig) for _, j, sig in accepted_golden_judgements()]
    corpus += [(_j("urmm", coin_sig, "z : J(2)", t, "T(2)"), coin_sig)
               for t in ("do x <- (do y <- ret z in ret not y) in ret x",
                         "do x <- ret not not z in do y <- ret x in ret y",
                         "do x <- (do y <- coin in ret not y) in"
                         " ret not x")]
    corpus.append((_j("lnl", lnl_sig, ["", "w : gr(2 * 3), u : I"],
                      "(regrade<6>=6> w, u)", "gr(6) * I", form="C"),
                   lnl_sig))
    for calc, sig, objects in (("rmm", sweep_sig, ["1o", "2"]),
                               ("gmm", gmm_plain_sig, ["A", "B"]),
                               ("arrow", arrow_sig, ["B", "C"])):
        tr = {"gmm": gmm_to_lnl, "arrow": arrow_to_armm}.get(calc)
        for j in _generated(rng, sig, calc, objects, 40):
            corpus.append((j, sig))
            if tr is not None:
                corpus.append((tr(j, sig)[0], sig))
    # instances of the core equations: a redex at every depth
    for _ in range(3):
        corpus += [(j, coin_sig) for _, jl, jr in genmod.rmm_schema_instances(
            rng, coin_sig, ["2", "4"]) for j in (jl, jr)]
        corpus += [(j, gmm_plain_sig) for _, jl, jr in
                   genmod.gmm_schema_instances(rng, gmm_plain_sig, ["A", "B"])
                   for j in (jl, jr)]
    counts = _differential(monkeypatch)
    for j, sig in corpus:
        _rewrite_everything(j, sig)
    calculi = {"urmm", "rmm", "gmm", "lnl", "arrow", "armm"}
    assert {c for c, local in counts if local} == calculi, counts
    assert any(not local for _, local in counts), counts


def _rewrite_by_rows(r, t, ctx):
    """Rule r's rewrite of t as the table rule's own loop over its rows
    gave it: the first row that matches, or the rule's function."""
    if r.rewrite is not None:
        return r.rewrite(t, ctx)
    return next((new for row in r.rows
                 if (new := row.rewrite(t, ctx)) is not None), None)


def _break(monkeypatch, name, broken):
    """Make a rule return broken(t) wherever it fires on t."""
    def patched(r):
        return r if r.name != name else replace(
            r, rows=(), rewrite=lambda t, ctx: None
            if _rewrite_by_rows(r, t, ctx) is None else broken(t))

    monkeypatch.setattr(equations, "INDEX",
                        RuleIndex([patched(r) for r in RULES]))


@pytest.mark.parametrize("case", ["broken-rule", "lnl-drops-a-variable"])
def test_a_step_that_breaks_typing_is_worded_by_a_full_check(
        case, coin_sig, lnl_sig, monkeypatch):
    """A step whose local check cannot vouch for it falls back to a full
    check, so its error reads as when every step was checked in full:
    do.beta returning the bound value itself (same occurrences, another
    type), and an LNL do.eta that drops the `let () = v in` of its
    scrutinee (one linear variable fewer)."""
    if case == "broken-rule":
        _break(monkeypatch, "do.beta", lambda t: t.subs[0].subs[0])
        j = _j("rmm", coin_sig, "y : J(2), u : T(2)",
               "do w <- u in (do x <- ret y in ret not x)", "T(2)")
        sig, text = coin_sig, (
            "rule do.beta at (1,) broke typing: do body must be a"
            " computation\n"
            "  before: do w <- u in do x <- ret y in ret not x\n"
            "  after:  do w <- u in y")
    else:
        _break(monkeypatch, "do.eta", lambda t: t.subs[0].subs[1])
        j = _j("lnl", lnl_sig, ["", "u : I, v : I, x : J(A)"],
               "let () = u in (do y <- (let () = v in ret x) in ret y)",
               "T(A)", form="C")
        sig, text = lnl_sig, (
            "rule do.eta at (1,) broke typing: unused linear variable(s):"
            " v\n"
            "  before: let () = u in do y <- let () = v in ret x in ret y\n"
            "  after:  let () = u in ret x")
    counts = _differential(monkeypatch)
    with pytest.raises(equations.SubjectReductionError) as e:
        normalize(j, sig)
    assert str(e.value) == text
    assert counts == {(j.calculus, False): 1}


def test_check_eq_validates_the_shape_once(coin_sig, dist_binding,
                                           monkeypatch):
    """The two sides of check_eq share one judgement shape: its zones and
    type are validated by the first check alone, and the model sweep reads
    the sides' derivations instead of checking them again."""
    jl = _j("rmm", coin_sig, "z : J(2), u : T(2)",
            "do x <- coin in do w <- u in ret x", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2), u : T(2)", "do w <- u in ret z",
            "T(2)")
    # whether dist.mb models the coin theory is decided once per binding,
    # by checks of the axioms' sides: decided here, outside the count
    assert equations._models_theory(dist_binding, coin_sig)
    calls = []
    orig = typecheck.validate_type
    monkeypatch.setattr(typecheck, "validate_type",
                        lambda *a, **k: calls.append(a) or orig(*a, **k))
    assert check(jl, coin_sig).ok
    once = len(calls)
    assert once >= 3  # the two zone types and the result type
    del calls[:]
    seen = _count_checks(monkeypatch)
    v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    assert v.status == "REFUTED"
    assert len(seen) >= 2
    assert len(calls) == once


# -- the model sweep ahead of the axiom search --------------------------------

def _check_eq_search_first(jl, jr, sig, bindings=(), *, depth=6,
                           budget=10000):
    """check_eq with the axiom search before the model sweep: the order it
    had before a model of the theory refuted ahead of the search, kept as
    the reference its verdicts must equal."""
    if (jl.calculus, jl.form, jl.zones, jl.ty) != \
            (jr.calculus, jr.form, jr.zones, jr.ty):
        raise equations.RewriteError(
            "the two sides are not judgements of one shape")
    checks = equations._Checks(sig)
    cl = equations._enter(jl, checks)
    nl = normalize(cl, sig, budget=budget, checks=checks)
    cr = equations._enter(jr, checks)
    nr = normalize(cr, sig, budget=budget, checks=checks)
    if alpha_eq(nl.term, nr.term):
        return EqVerdict("PROVEN", proof=EqProof(
            tuple(nl.steps + equations._backward(nr.steps))))
    axioms = sig.theory.axioms if sig.theory else []
    mid = equations._bisearch(checks, cl, nl, cr, nr, axioms, depth, budget)
    if mid is not None:
        return EqVerdict("PROVEN", proof=EqProof(tuple(mid)))
    for name, binding in bindings:
        eq, witness = models.semantic_eq(checks(jl), checks(jr), binding,
                                         sig)
        if not eq:
            return EqVerdict("REFUTED", model=name, witness=witness)
    return EqVerdict("UNKNOWN", lhs_nf=nl.term, rhs_nf=nr.term)


def _rendered(decide, jl, jr, sig, bindings):
    """The verdict as rendered (status and proof, or model and witness, or
    normal forms), or the model error raised."""
    try:
        return decide(jl, jr, sig, bindings).render()
    except models.ModelError as e:
        return f"{type(e).__name__}: {e}"


def _coin_pairs(rng, coin_sig):
    """Closed coin programs as the `equations` workload draws them: k = 1-3
    binds of coin in order on the left and shuffled on the right, and a
    continuation (a pair2, or a boolean of not and and2 over the bound
    names) that on the right is the left's, the left's with and2's
    arguments swapped, or drawn afresh."""
    def expr(names, depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return ("var", rng.choice(names))
        if r < 0.65:
            return ("not", expr(names, depth - 1))
        return ("and2", expr(names, depth - 1), expr(names, depth - 1))

    def commuted(e):
        if e[0] == "and2":
            return ("and2", commuted(e[2]), commuted(e[1]))
        return ("not", commuted(e[1])) if e[0] == "not" else e

    def text(e):
        if e[0] == "var":
            return e[1]
        if e[0] == "not":
            return "not " + (e[1][1] if e[1][0] == "var"
                             else f"({text(e[1])})")
        return f"and2({text(e[1])}, {text(e[2])})"

    def program(order, cont):
        body = "ret " + (f"pair2({text(cont[0])}, {text(cont[1])})"
                         if len(cont) == 2 else text(cont[0]))
        for x in reversed(order):
            body = f"do {x} <- coin in {body}"
        return body

    out = []
    for k in (1, 2, 3):
        names = [f"x{i}" for i in range(1, k + 1)]
        for relation in ("same", "commuted", "fresh"):
            for i in range(4):
                width = 1 + i % 2   # a boolean, or a pair2 of two
                cont = tuple(expr(names, 2) for _ in range(width))
                other = {"same": cont,
                         "commuted": tuple(map(commuted, cont)),
                         "fresh": tuple(expr(names, 2)
                                        for _ in range(width))}[relation]
                rorder = rng.sample(names, k)
                ty = "T(4)" if width == 2 else "T(2)"
                out.append((_j("rmm", coin_sig, "", program(names, cont), ty),
                            _j("rmm", coin_sig, "", program(rorder, other),
                               ty)))
    return out


EQ_GOLDEN = Path(__file__).parent / "golden" / "eq"

# the stone suite: the coin theory's three axioms as equation pairs
STONE = [("do x <- coin in ret ()", "ret ()", "T(1)"),
         ("do x <- coin in do y <- coin in ret pair2(x,y)",
          "do y <- coin in do x <- coin in ret pair2(x,y)", "T(4)"),
         ("do x <- coin in ret not x", "coin", "T(2)")]


def _golden_eq_pairs(coin_sig, store_sig, dist_binding):
    """(jl, jr, sig, models) of every equation file with an `eq` golden,
    with the theory and models its golden was made with."""
    out = []
    for golden in sorted(EQ_GOLDEN.glob("*.txt")):
        local = EQ_GOLDEN / f"{golden.stem}.eq"
        path = local if local.exists() else fixture_path(f"{golden.stem}.eq")
        sig, bindings = ((store_sig, []) if golden.stem.startswith("store")
                         else (coin_sig, [("dist", dist_binding)]))
        out.append((*load_eq_file(str(path), sig), sig, bindings))
    return out


def test_sweep_first_gives_the_search_first_verdicts(coin_sig, store_sig,
                                                     dist_binding,
                                                     exc_binding):
    """Sweeping the models before the search changes no verdict, proof,
    model or witness: on the stone suite, every `eq` golden's pair, and
    closed coin programs of 1-3 binds under dist.mb, alone and after
    exc_binding (not a model of the theory)."""
    dist = [("dist", dist_binding)]
    cases = [(_j("rmm", coin_sig, "", lhs, ty),
              _j("rmm", coin_sig, "", rhs, ty), coin_sig, dist)
             for lhs, rhs, ty in STONE]
    cases += _golden_eq_pairs(coin_sig, store_sig, dist_binding)
    coin = _coin_pairs(random.Random(20240811), coin_sig)
    cases += [(jl, jr, coin_sig, dist) for jl, jr in coin]
    cases += [(jl, jr, coin_sig, [("e", exc_binding)] + dist)
              for jl, jr in coin]
    statuses = collections.Counter()
    for jl, jr, sig, bindings in cases:
        got = _rendered(check_eq, jl, jr, sig, bindings)
        assert got == _rendered(_check_eq_search_first, jl, jr, sig,
                                bindings), term_to_text(jl.term)
        statuses[got.split()[0]] += 1
    assert set(statuses) == {"PROVEN", "REFUTED", "UNKNOWN"}, statuses


def _count_searches(monkeypatch):
    calls = []
    real = equations._bisearch
    monkeypatch.setattr(equations, "_bisearch",
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_only_a_model_of_the_theory_refutes_before_the_search(
        coin_sig, dist_binding, exc_binding, monkeypatch):
    """dist.mb is a model of the coin theory and refutes an rmm pair
    without a search; exc_binding, which breaks `do x <- coin in ret () =
    ret ()`, refutes only after a failed search, and never replaces the
    search's proof of that axiom."""
    searches = _count_searches(monkeypatch)
    jl = _j("rmm", coin_sig, "z : J(2)", "do x <- coin in ret x", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret z", "T(2)")
    v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    assert v.render() == "REFUTED model=dist witness=[z=tt]"
    assert not searches
    v = check_eq(jl, jr, coin_sig, [("e", exc_binding),
                                    ("dist", dist_binding)])
    assert v.render() == "REFUTED model=e witness=[z=tt]"
    assert len(searches) == 1
    ax1 = [_j("rmm", coin_sig, "", t, "T(1)")
           for t in ("do x <- coin in ret ()", "ret ()")]
    assert not models.semantic_eq(*ax1, exc_binding, coin_sig)[0]
    v = check_eq(*ax1, coin_sig, [("e", exc_binding)])
    assert v.render() == "PROVEN\nax1 at root lr fwd"
    assert len(searches) == 2
    # the theory's axioms were swept as judgements of its calculus (rmm),
    # so a pair of another calculus waits for the search
    ul, ur = (replace(j, calculus="urmm") for j in (jl, jr))
    v = check_eq(ul, ur, coin_sig, [("dist", dist_binding)])
    assert v.render() == "REFUTED model=dist witness=[z=tt]"
    assert len(searches) == 3


def test_whether_a_binding_models_the_theory(
        coin_sig, gmm_sig, arrow_sig, dist_binding, exc_binding,
        glist_binding, karr_binding):
    """dist.mb is a model of the coin theory; exc_binding, whose coin
    raises, is not; a binding whose axiom sweep raises (it has no pair2) is
    not, and loads all the same; any binding satisfies a signature with no
    theory.  A binding that breaks a relation of the signature asked about
    is not a model of it."""
    assert equations._models_theory(dist_binding, coin_sig)
    assert not equations._models_theory(exc_binding, coin_sig)
    bare = models.load_binding(BARE_DIST_MB, coin_sig)
    assert not equations._models_theory(bare, coin_sig)
    no_theory = replace(coin_sig, theory=None)
    for b in (dist_binding, exc_binding, bare):
        assert equations._models_theory(b, no_theory)
    assert equations._models_theory(glist_binding, gmm_sig)
    assert equations._models_theory(karr_binding, arrow_sig)
    free = load_signature("calculus rmm\nobject 2\nobject 4\n"
                          "gen not : 2 -> 2\n")
    broken = models.load_binding(EXC_MB.replace(
        "interp not = {tt -> ff, ff -> tt}",
        "interp not = {tt -> tt, ff -> tt}"), free)
    assert equations._models_theory(broken, free)
    assert not equations._models_theory(broken, no_theory)


def test_a_model_of_the_theory_is_judged_against_the_signature_asked(
        coin_sig, monkeypatch):
    """A binding loaded under a signature without a theory, where it is a
    model, and then used with the coin theory is judged against the coin
    theory: exc's coin breaks ax1, so ax1 stays PROVEN by the search.  The
    judgement is made once per binding and signature."""
    exc = models.load_binding(EXC_MB, replace(coin_sig, theory=None))
    searches = _count_searches(monkeypatch)
    sweeps = []
    real = models.semantic_eq
    monkeypatch.setattr(models, "semantic_eq",
                        lambda *a: sweeps.append(a) or real(*a))
    ax1 = [_j("rmm", coin_sig, "", t, "T(1)")
           for t in ("do x <- coin in ret ()", "ret ()")]
    for _ in range(2):
        v = check_eq(*ax1, coin_sig, [("e", exc)])
        assert v.render() == "PROVEN\nax1 at root lr fwd"
    assert len(searches) == 2 and len(sweeps) == 1


def test_a_sweep_error_waits_for_the_search(coin_sig, monkeypatch):
    """A distribution binding without pair2 and and2 raises in the sweep; a
    pair the search proves is still PROVEN, and the error is raised only
    when the search fails too."""
    bare = models.load_binding(BARE_DIST_MB, coin_sig)
    assert not equations._models_theory(bare, coin_sig)
    searches = _count_searches(monkeypatch)
    jl = _j("rmm", coin_sig, "", "do x <- coin in do y <- coin in"
            " ret pair2(x,y)", "T(4)")
    jr = _j("rmm", coin_sig, "", "do y <- coin in do x <- coin in"
            " ret pair2(x,y)", "T(4)")
    with pytest.raises(models.ModelError):
        models.semantic_eq(jl, jr, bare, coin_sig)
    v = check_eq(jl, jr, coin_sig, [("bare", bare)])
    assert v.render() == "PROVEN\nax2 at root lr fwd"
    jl, jr = load_eq_file(str(EQ_GOLDEN / "refuted_dist.eq"), coin_sig)
    with pytest.raises(models.ModelError,
                       match="^binding has no interpretation for operation"
                             " and2$"):
        check_eq(jl, jr, coin_sig, [("bare", bare)])
    assert len(searches) == 2


# -- the sweep over the normal forms ------------------------------------------

GL_MB = ("calculus {}\nbackend gradedlist\ncarrier A = {{a1, a2}}\n"
         "carrier B = {{b1}}\n")


def _translated_pairs(gmm_sig, arrow_sig, karmm_binding, n):
    """(jl, jr, sig, models) of n seeded schema pairs of each direction,
    translated (gmm->lnl and arrow->armm), with the target's models as the
    conservativity workload sweeps them."""
    rng = random.Random(20251019)
    lnl = [("lnl", models.load_binding(GL_MB.format("lnl"), gmm_sig))]
    out = []
    for tr, draw, sig, bindings in (
            (gmm_to_lnl, lambda: genmod.gmm_schema_instances(
                rng, gmm_sig, ["A", "B"], ctx_size=1, size=2, max_grade=2),
             gmm_sig, lnl),
            (arrow_to_armm, lambda: genmod.arrow_schema_instances(
                rng, arrow_sig, ["B", "C"], size=2),
             arrow_sig, [("karmm", karmm_binding)])):
        pairs = []
        while len(pairs) < n:
            pairs.extend(draw())
        out += [(tr(jl, sig)[0], tr(jr, sig)[0], sig, bindings)
                for _, jl, jr in pairs[:n]]
    return out


def _normal_forms_differ(jl, jr, sig):
    """Whether check_eq sweeps the pair: its normal forms differ.  Also
    whether normalization took a step on either side."""
    nl, nr = normalize(jl, sig), normalize(jr, sig)
    return not alpha_eq(nl.term, nr.term), bool(nl.steps or nr.steps)


def test_the_sweep_gives_the_originals_verdicts(coin_sig, gmm_plain_sig,
                                                arrow_sig, dist_binding,
                                                exc_binding, karmm_binding):
    """Every pair check_eq sweeps, from the stone suite, closed coin
    programs (under dist.mb, alone and after exc_binding) and 100 seeded
    translated schema pairs of each direction, gets the verdict, model and
    witness of a sweep of the originals, binding by binding in order."""
    dist = [("dist", dist_binding)]
    cases = [(_j("rmm", coin_sig, "", lhs, ty),
              _j("rmm", coin_sig, "", rhs, ty), coin_sig, dist)
             for lhs, rhs, ty in STONE]
    coin = _coin_pairs(random.Random(25), coin_sig)
    cases += [(jl, jr, coin_sig, dist) for jl, jr in coin]
    cases += [(jl, jr, coin_sig, [("e", exc_binding)] + dist)
              for jl, jr in coin]
    cases += _translated_pairs(gmm_plain_sig, arrow_sig, karmm_binding, 100)
    swept = stepped = 0
    statuses = collections.Counter()
    for jl, jr, sig, bindings in cases:
        differ, steps = _normal_forms_differ(jl, jr, sig)
        if not differ:
            continue
        swept += 1
        stepped += steps
        got = _rendered(check_eq, jl, jr, sig, bindings)
        assert got == _rendered(_check_eq_search_first, jl, jr, sig,
                                bindings), term_to_text(jl.term)
        statuses[got.split()[0]] += 1
    assert swept >= 100 and stepped >= 60, (swept, stepped)
    assert set(statuses) == {"PROVEN", "REFUTED", "UNKNOWN"}, statuses


# `not` interpreted as the constant tt: it breaks `rel not;not = id_2`
NOT_TT = "interp not = {tt -> tt, ff -> tt}"


def test_a_binding_that_breaks_a_relation_is_swept_over_the_originals(
        coin_sig, dist_binding, monkeypatch):
    """Normalization collapses `not not z` to z (`gen.word` reads the
    relation not;not = id_2), so under a binding that breaks the relation
    the normal forms, `ret z` and `ret and2(z, z)`, are equal everywhere
    while the originals differ at z = ff: the binding is swept over the
    originals, and refutes after the failed search.  dist.mb, which
    respects the relation, is swept over the normal forms alone."""
    free = load_signature("calculus rmm\nobject 2\nobject 4\n"
                          "gen not : 2 -> 2\nop coin : () -> T(2)\n"
                          "op pair2 : (x : J(2), y : J(2)) -> J(4)\n"
                          "op and2 : (x : J(2), y : J(2)) -> J(2)\n")
    broken = models.load_binding(
        fixture_text("dist.mb").replace("interp not = {tt -> ff, ff -> tt}",
                                        NOT_TT), free)
    jl = _j("rmm", coin_sig, "z : J(2)", "ret not (not z)", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret and2(z, z)", "T(2)")
    assert _normal_forms_differ(jl, jr, coin_sig) == (True, True)
    assert not models.semantic_eq(jl, jr, broken, coin_sig)[0]
    v = check_eq(jl, jr, coin_sig, [("broken", broken)])
    assert v.render() == "REFUTED model=broken witness=[z=ff]"
    assert _rendered(check_eq, jl, jr, coin_sig, [("broken", broken)]) == \
        _rendered(_check_eq_search_first, jl, jr, coin_sig,
                  [("broken", broken)])
    swept = []
    real = models._sweep

    def sweep(c1, c2, *rest):
        swept.append([term_to_text(c.derivation.term)
                      for c in (c1, c2)])
        return real(c1, c2, *rest)
    monkeypatch.setattr(models, "_sweep", sweep)
    check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    assert swept == [["ret z", "ret and2(z, z)"]]
    check_eq(jl, jr, coin_sig, [("broken", broken)])
    assert swept[1:] == [["ret not not z", "ret and2(z, z)"]]


def test_a_normal_form_the_models_separate_does_not_change_the_verdict(
        coin_sig, dist_binding, monkeypatch):
    """A normalization that returned a wrong normal form, one a model
    separates from its original, gives the verdict a sweep of the
    originals gives: `ret not (not z)` normalizes to `ret z`, but a
    `normalize` that answers `ret not z` makes it differ from `ret and2(z,
    z)` at every z; the originals are equal under dist.mb, so the pair is
    UNKNOWN, not REFUTED."""
    jl = _j("rmm", coin_sig, "z : J(2)", "ret not (not z)", "T(2)")
    jr = _j("rmm", coin_sig, "z : J(2)", "ret and2(z, z)", "T(2)")
    wrong = parse_term("ret not z", "rmm", coin_sig)
    real = equations.normalize

    def normalize_wrongly(j, sig, **kw):
        out = real(j, sig, **kw)
        if typecheck.is_checked(j, sig) and j.term == jl.term:
            return equations.NormalizeResult(wrong, out.steps)
        return out
    monkeypatch.setattr(equations, "normalize", normalize_wrongly)
    assert models.semantic_eq(jl, jr, dist_binding, coin_sig) == (True, None)
    v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    assert v.render() == ("UNKNOWN\n  lhs normal form: ret not z\n"
                          "  rhs normal form: ret and2(z, z)")


def _expand_every_rule(c, checks, axioms, budget):
    """`_expand` as it was: every rule fired at every position, and the
    search-only ones kept."""
    sig = checks.sig
    out = [(step, normalize(nxt, sig, budget=budget, checks=checks))
           for step, nxt in equations.axiom_moves(c, sig, axioms,
                                                  checks=checks)]
    for r, path, new in _redexes_by_head(c, sig, lambda r: True):
        if r.search_only:
            nxt = checks.at(c, path, new)
            if isinstance(nxt, str):
                raise equations.RewriteError(
                    f"term does not type-check: {nxt}")
            out.append((Step(r.name, path),
                        normalize(nxt, sig, budget=budget, checks=checks)))
    return out


def _moves(expand, *args):
    """What `expand` returns, as comparable values, or the error it raises."""
    try:
        return [(step, norm.term, norm.steps)
                for step, norm in expand(*args)]
    except equations.RewriteError as e:
        return f"RewriteError: {e}"


def test_search_moves_ask_only_the_search_only_rules(coin_sig, lnl_sig,
                                                     dist_binding,
                                                     monkeypatch):
    """Asking the search-only rules alone, and none in a calculus without
    them, gives every search layer the moves that firing every rule and
    keeping the search-only ones gave: on the stone suite, closed coin
    programs of 1-3 binds, and an lnl pair where grade.assoc fires."""
    expanded = collections.Counter()
    real = equations._expand

    def both(c, checks, axioms, budget):
        got = _moves(real, c, checks, axioms, budget)
        assert got == _moves(_expand_every_rule, c, checks, axioms, budget)
        expanded[c.calculus, isinstance(got, str)] += 1
        return real(c, checks, axioms, budget)

    monkeypatch.setattr(equations, "_expand", both)
    pairs = [(_j("rmm", coin_sig, "", lhs, ty),
              _j("rmm", coin_sig, "", rhs, ty)) for lhs, rhs, ty in STONE]
    pairs += _coin_pairs(random.Random(20240811), coin_sig)
    for jl, jr in pairs:
        check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
    # grade.assoc rewrites the left side at the root, and both bodies
    # search on from its regrouped form
    zones = ["", "w : gr(2 * (2 * 2))"]
    jl = _j("lnl", lnl_sig, zones, "let (x,r) = unmerge w in let (y,z) = "
            "unmerge r in (x, (y, z))", "gr(2) * (gr(2) * gr(2))", form="C")
    jr = _j("lnl", lnl_sig, zones, "let (x,r) = unmerge w in let (y,z) = "
            "unmerge r in (y, (x, z))", "gr(2) * (gr(2) * gr(2))", form="C")
    c = check(jl, lnl_sig)
    assert [(r.name, path) for r, path, _ in equations.redexes(
        c, lnl_sig, search_only=True)] == [("grade.assoc", ())]
    assert check_eq(jl, jr, lnl_sig).status == "UNKNOWN"
    # letpairs of unmerges that grade.assoc is asked about and declines
    zones = ["", "w : gr(2 * 3), v : gr(2 * 3)"]
    jl, jr = (_j("lnl", lnl_sig, zones, "let (x,y) = unmerge w in let (a,b) "
                 f"= unmerge v in {body}", "(gr(2) * gr(3)) * (gr(2) * gr(3))",
                 form="C") for body in ("((x, b), (a, y))", "((a, y), (x, b))"))
    assert check_eq(jl, jr, lnl_sig).status == "UNKNOWN"
    assert expanded[("rmm", False)] > 100 and expanded[("lnl", True)] == 0 \
        and expanded[("lnl", False)] >= 4, expanded


@pytest.mark.parametrize("grade, lhs, rhs, step", [
    ("2 * (2 * 2)",
     "let (x,r) = unmerge w in let (y,z) = unmerge r in (x, (y, z))",
     "let (s,z) = unmerge regrade<2 * (2 * 2)>=(2 * 2) * 2> w in"
     " let (x,y) = unmerge s in (x, (y, z))", "grade.assoc at root fwd"),
    ("(2 * 2) * 2",
     "let (s,z) = unmerge w in let (x,y) = unmerge s in (x, (y, z))",
     "let (x,r) = unmerge regrade<(2 * 2) * 2>=2 * (2 * 2)> w in"
     " let (y,z) = unmerge r in (x, (y, z))", "grade.assoc.rev at root fwd")])
def test_grade_assoc_regroups_through_a_regrade(lnl_sig, grade, lhs, rhs,
                                                step):
    """Each way of grade associativity regrades the split token to the
    grouping its unmerges read, so its step type-checks and proves the
    regrouped form, and the proof replays."""
    jl, jr = (_j("lnl", lnl_sig, ["", f"w : gr({grade})"], t,
                 "gr(2) * (gr(2) * gr(2))", form="C") for t in (lhs, rhs))
    v = check_eq(jl, jr, lnl_sig)
    assert v.render() == f"PROVEN\n{step}"
    assert check_proof(v.proof, jl, jr, lnl_sig)


# -- the rule firings of a fixed corpus ---------------------------------------

def _record_firings(monkeypatch):
    """Record each redex the engine takes, and each rule step a proof
    replays, as (rule, calculus, path, `repr` with binder names, the
    rewritten term's text) lines."""
    lines = []
    real_redexes, real_apply = equations.redexes, equations.apply_rule_at

    def line(name, c, path, new, term):
        lines.append(f"{name} {c.calculus} {path} {new!r} "
                     f"{term_to_text(term)}")

    def redexes(c, sig, search_only=False):
        for r, path, new in real_redexes(c, sig, search_only):
            line(r.name, c, path, new, replace_at(c.term, path, new))
            yield r, path, new

    def apply_rule_at(c, sig, name, path):
        term = real_apply(c, sig, name, path)
        line(name, c, path, subterm_at(term, path), term)
        return term

    monkeypatch.setattr(equations, "redexes", redexes)
    monkeypatch.setattr(equations, "apply_rule_at", apply_rule_at)
    return lines


def test_the_rule_firings_of_a_fixed_corpus_are_pinned(
        coin_sig, gmm_plain_sig, lnl_sig, dist_binding, monkeypatch):
    """Every rule firing the engine takes, and replays, on the stone suite,
    closed coin programs, rmm and gmm schema instances and the lnl pairs
    that grade.assoc is asked about is pinned by one SHA-256: redex order,
    binder names and results all stay as they are."""
    import hashlib
    dist = [("dist", dist_binding)]
    cases = [(_j("rmm", coin_sig, "", lhs, ty),
              _j("rmm", coin_sig, "", rhs, ty), coin_sig, dist)
             for lhs, rhs, ty in STONE]
    cases += [(jl, jr, coin_sig, dist)
              for jl, jr in _coin_pairs(random.Random(20240811), coin_sig)]
    rng = random.Random(20241019)
    for _ in range(3):
        cases += [(jl, jr, coin_sig, dist) for _, jl, jr in
                  genmod.rmm_schema_instances(rng, coin_sig, ["2", "4"])]
        cases += [(jl, jr, gmm_plain_sig, []) for _, jl, jr in
                  genmod.gmm_schema_instances(rng, gmm_plain_sig,
                                              ["A", "B"])]
    left = "let (x,r) = unmerge w in let (y,z) = unmerge r in "
    right = "let (s,z) = unmerge {}w in let (x,y) = unmerge s in "
    for grade, lhs, rhs in (
            ("2 * (2 * 2)", left + "(x, (y, z))", left + "(y, (x, z))"),
            ("2 * (2 * 2)", left + "(x, (y, z))", right.format(
                "regrade<2 * (2 * 2)>=(2 * 2) * 2> ") + "(x, (y, z))"),
            ("(2 * 2) * 2", right.format("") + "(x, (y, z))",
             left.replace("w", "regrade<(2 * 2) * 2>=2 * (2 * 2)> w")
             + "(x, (y, z))")):
        cases.append((*(_j("lnl", lnl_sig, ["", f"w : gr({grade})"], t,
                           "gr(2) * (gr(2) * gr(2))", form="C")
                        for t in (lhs, rhs)), lnl_sig, []))
    zones = ["", "w : gr(2 * 3), v : gr(2 * 3)"]
    jl, jr = (_j("lnl", lnl_sig, zones, "let (x,y) = unmerge w in let (a,b) "
                 f"= unmerge v in {body}", "(gr(2) * gr(3)) * (gr(2) * gr(3))",
                 form="C") for body in ("((x, b), (a, y))", "((a, y), (x, b))"))
    cases.append((jl, jr, lnl_sig, []))
    lines = _record_firings(monkeypatch)
    statuses = collections.Counter()
    for jl, jr, sig, bindings in cases:
        v = check_eq(jl, jr, sig, bindings)
        statuses[v.status] += 1
        lines.append(v.render())
        if v.status == "PROVEN":
            assert check_proof(v.proof, jl, jr, sig)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), dict(statuses)) == \
        (1289, {"PROVEN": 69, "UNKNOWN": 18, "REFUTED": 7})
    assert sum("grade.assoc" in line for line in lines) == 10
    assert digest == \
        "48ede7f8c0434d91cd48e0d4d4419f21c926013956a713f38659aa47ab1078b6"


# -- the rule and axiom index against trying everything ------------------------

def _redexes_by_head(c, sig, keep):
    """The (rule, path, new subterm) triples that trying every rule `keep`
    admits at every position gives, in position and then registration
    order: the engine's search before the rule index."""
    for path in positions(c.term):
        sub, node = subterm_at(c.term, path), c.derivation
        for i in path:
            node = node.children[i]
        ctx = RuleCtx(sig, c.calculus, node)
        for r in RULES:
            if c.calculus in r.calculi and sub.kind in r.heads and keep(r):
                new = _rewrite_by_rows(r, sub, ctx)
                if new is not None and new != sub:
                    yield r, path, new


def _axiom_moves_everywhere(c, checks, axioms):
    """`axiom_moves` before its position index: each axiom, each way, tried
    at every position."""
    out = []
    for ax in axioms:
        axvars = {x for x, _ in ax.zones[0]}
        for axdir, (src, tgt) in (("lr", (ax.lhs, ax.rhs)),
                                  ("rl", (ax.rhs, ax.lhs))):
            for path in positions(c.term):
                sigma = rules.match(src, subterm_at(c.term, path), axvars,
                                    {})
                if sigma is None or axvars - set(sigma):
                    continue
                nxt = checks.at(c, path, rules.instantiate(tgt, sigma))
                if not isinstance(nxt, str):
                    out.append((Step(ax.name, path, kind="axiom", axdir=axdir,
                                     sigma=tuple(sorted(sigma.items()))),
                                nxt))
    return out


def _shown(triples):
    return [(r.name, path, repr(new)) for r, path, new in triples]


def test_the_index_tries_what_trying_everything_finds(
        coin_sig, gmm_plain_sig, lnl_sig, arrow_sig, store_sig,
        dist_binding):
    """At every term a normalization passes through, `redexes` (normalizing
    and search-only) and `axiom_moves` give exactly what trying every rule
    of the head and every axiom at every position gives, in its order:
    on the stone suite, closed coin programs, rmm and gmm schema instances,
    generated gmm and arrow terms and their lnl and armm translations, the
    accepted goldens and terms where the type-reading rules fire."""
    rng = random.Random(20241019)
    corpus = [(_j("rmm", coin_sig, "", t, ty), coin_sig)
              for lhs, rhs, ty in STONE for t in (lhs, rhs)]
    corpus += [(j, coin_sig) for pair in _coin_pairs(rng, coin_sig)
               for j in pair]
    for _ in range(2):
        corpus += [(j, coin_sig) for _, jl, jr in genmod.rmm_schema_instances(
            rng, coin_sig, ["2", "4"]) for j in (jl, jr)]
        corpus += [(j, gmm_plain_sig) for _, jl, jr in
                   genmod.gmm_schema_instances(rng, gmm_plain_sig, ["A", "B"])
                   for j in (jl, jr)]
    for calc, sig, objects, tr in (("gmm", gmm_plain_sig, ["A", "B"],
                                    gmm_to_lnl),
                                   ("arrow", arrow_sig, ["B", "C"],
                                    arrow_to_armm)):
        for j in _generated(rng, sig, calc, objects, 30):
            corpus += [(j, sig), (tr(j, sig)[0], sig)]
    corpus += [(j, sig) for _, j, sig in accepted_golden_judgements()]
    for name in ("store_d1", "store_d2"):
        corpus += [(j, store_sig) for j in
                   load_eq_file(fixture_path(f"{name}.eq"), store_sig)]
    corpus += [
        (_j("rmm", coin_sig, "p : 1 * 1", "pi1 p", "1"), coin_sig),
        (_j("armm", arrow_sig, ["", "", "k : K(1) * K(B)"], "pi1 k", "K(1)",
            form="C"), arrow_sig),
        (_j("lnl", lnl_sig, ["", "w : gr(2 * (2 * 2))"],
            "let (x,r) = unmerge w in let (y,z) = unmerge r in (x, (y, z))",
            "gr(2) * (gr(2) * gr(2))", form="C"), lnl_sig)]
    fired, moved, terms = collections.Counter(), 0, 0
    for j, sig in corpus:
        axioms = sig.theory.axioms if sig.theory else []
        checks = equations._Checks(sig)
        c = equations._enter(j, checks)
        for _ in range(100):
            terms += 1
            for search_only in (False, True):
                got = _shown(equations.redexes(c, sig, search_only))
                assert got == _shown(_redexes_by_head(
                    c, sig, lambda r: r.search_only == search_only)), \
                    term_to_text(c.term)
                fired.update(name for name, _, _ in got)
            moves = [(step, nxt.term) for step, nxt in
                     equations.axiom_moves(c, sig, axioms, checks=checks)]
            assert moves == [(step, nxt.term) for step, nxt in
                             _axiom_moves_everywhere(c, checks, axioms)]
            moved += len(moves)
            rd = next(equations.redexes(c, sig), None)
            if rd is None:
                break
            c = checks.at(c, rd[1], rd[2])
    assert {"unit.eta", "jk.unit.eta", "grade.assoc", "fun.beta",
            "let.exchange", "do.regrade.body"} <= set(fired), fired
    assert moved > 100 and terms > 500, (moved, terms)


def test_the_marked_scan_finds_what_an_unmarked_scan_finds(
        coin_sig, gmm_plain_sig, arrow_sig, monkeypatch):
    """Every scan the engine makes, reading and leaving clean marks, yields
    the redexes, in order, that a scan of a full check's unmarked derivation
    of the same judgement yields, on the pairs the two rewrite workloads
    decide: closed coin programs and rmm and gmm schema instances, and gmm
    and arrow schema instances with their lnl and armm translations, at the
    workloads' search depths.  Whether a scan is consumed in part (a
    normalization step) or in full, each yield is compared as it is made."""
    real = equations.redexes
    scans = collections.Counter()

    def redexes(c, sig, search_only=False):
        scans[search_only] += 1
        want = _shown(real(check(c, sig), sig, search_only))
        got = []
        for rd in real(c, sig, search_only):
            got += _shown([rd])
            assert got == want[:len(got)], term_to_text(c.term)
            yield rd
        assert got == want, term_to_text(c.term)

    monkeypatch.setattr(equations, "redexes", redexes)
    rng = random.Random(20241020)
    pairs = [(jl, jr, coin_sig, 6) for jl, jr in _coin_pairs(rng, coin_sig)]
    for _ in range(2):
        pairs += [(jl, jr, coin_sig, 6) for _, jl, jr in
                  genmod.rmm_schema_instances(rng, coin_sig, ["2", "4"])]
        pairs += [(jl, jr, gmm_plain_sig, 6) for _, jl, jr in
                  genmod.gmm_schema_instances(rng, gmm_plain_sig,
                                              ["A", "B"])]
        for make, sig, objects, tr in (
                (genmod.gmm_schema_instances, gmm_plain_sig, ["A", "B"],
                 gmm_to_lnl),
                (genmod.arrow_schema_instances, arrow_sig, ["B", "C"],
                 arrow_to_armm)):
            for _, jl, jr in make(rng, sig, objects, size=2):
                pairs += [(jl, jr, sig, 3),
                          (tr(jl, sig)[0], tr(jr, sig)[0], sig, 3)]
    statuses = collections.Counter(
        check_eq(jl, jr, sig, depth=depth).status
        for jl, jr, sig, depth in pairs)
    assert statuses["PROVEN"] > 80 and statuses["UNKNOWN"] > 30, statuses
    assert scans[False] > 2000 and scans[True] > 200, scans
