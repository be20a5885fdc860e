"""The two embedding translations: typing preservation, compositionality,
fidelity to the closed unit/bind/regrade programs, and the conservativity
harnesses."""

import random

import pytest

from relmeta import gen as genmod
from relmeta import syntax, translate as translate_mod
from relmeta.models import load_binding
from relmeta.signatures import load_signature
from relmeta.syntax import (alpha_eq, bsubst, close_binder, judgement,
                            parse_context, parse_term, parse_type,
                            term_to_text)
from relmeta.translate import (TranslateError, arrow_to_armm, bind_program,
                               conservativity_harness, gmm_to_lnl,
                               regrade_program, translate, ty_arrow_to_armm,
                               ty_gmm_to_lnl, unit_program)
from relmeta.typecheck import check


# -- type maps -------------------------------------------------------------

def test_type_maps():
    assert ty_gmm_to_lnl(parse_type("T_2(A)")) == \
        parse_type("R(gr(2) -o T(A))")
    assert ty_gmm_to_lnl(parse_type("T_1(A * 1)")) == \
        parse_type("R(gr(1) -o T(A * 1))")
    assert ty_arrow_to_armm(parse_type("B ~> C")) == parse_type("B => T(C)")
    assert ty_arrow_to_armm(parse_type("B -> C")) == parse_type("B => J(C)")
    assert ty_arrow_to_armm(parse_type("(B -> C) ~> B")) == \
        parse_type("(B => J(C)) => T(B)")


def test_closed_programs_check(lnl_sig):
    from relmeta.syntax import gnat
    up = unit_program(parse_type("A"), gnat(1))
    assert check(judgement("lnl", [()], up,
                           parse_type("A -> R(gr(1) -o T(A))"), form="A"),
                 lnl_sig).ok
    bp = bind_program(gnat(2), gnat(3), parse_type("A"), parse_type("B"))
    assert check(judgement(
        "lnl", [()], bp,
        parse_type("R(gr(2) -o T(A)) -> (A -> R(gr(3) -o T(B)))"
                   " -> R(gr(6) -o T(B))"), form="A"), lnl_sig).ok
    from relmeta.syntax import GradeMor
    rp = regrade_program(GradeMor(gnat(5), gnat(3)), parse_type("A"))
    assert check(judgement(
        "lnl", [()], rp,
        parse_type("R(gr(3) -o T(A)) -> R(gr(5) -o T(A))"), form="A"),
        lnl_sig).ok


def test_unit_translation_shape(gmm_sig):
    j = judgement("gmm", [parse_context("a : A", gmm_sig)],
                  parse_term("ret a", "gmm", gmm_sig), parse_type("T_1(A)"))
    tgt, trace = gmm_to_lnl(j, gmm_sig)
    assert trace.typing_preserved
    # the unit program applied at the argument, token for token
    assert term_to_text(tgt.term) == \
        "app (lam (a1:A). R(lam (x:gr(1)). let () = unmerge x in" \
        " ret J(a1))) a"


def test_regrade_translation_shape(gmm_sig):
    j = judgement("gmm", [parse_context("u : T_2(A)", gmm_sig)],
                  parse_term("regrade<3>=2> u", "gmm", gmm_sig),
                  parse_type("T_3(A)"))
    tgt, _ = gmm_to_lnl(j, gmm_sig)
    assert "regrade<3>=2>" in term_to_text(tgt.term)
    assert "derelict" in term_to_text(tgt.term)


def test_arrow_command_clauses(arrow_sig):
    j = judgement("arrow",
                  [parse_context("f : B ~> C", arrow_sig),
                   parse_context("w : B", arrow_sig)],
                  parse_term("f . w", "arrow", arrow_sig),
                  parse_type("C"), form="C")
    tgt, _ = arrow_to_armm(j, arrow_sig)
    assert term_to_text(tgt.term) == "f . w"
    assert tgt.ty == parse_type("T(C)")
    assert tgt.zones[2] == ()
    j2 = judgement("arrow",
                   [(), parse_context("w : B", arrow_sig)],
                   parse_term("ret w", "arrow", arrow_sig),
                   parse_type("B"), form="C")
    tgt2, _ = arrow_to_armm(j2, arrow_sig)
    assert term_to_text(tgt2.term) == "ret J(w)"
    j3 = judgement("arrow",
                   [parse_context("f : B ~> B", arrow_sig),
                    parse_context("w : B", arrow_sig)],
                   parse_term("do x <- f . w in ret x", "arrow", arrow_sig),
                   parse_type("B"), form="C")
    tgt3, _ = arrow_to_armm(j3, arrow_sig)
    assert term_to_text(tgt3.term) == \
        "do y <- f . w in let J(x) = y in ret J(x)"


def test_identity_arrow_beta_after_translation(arrow_sig):
    from relmeta.equations import normalize
    j = judgement("arrow", [(), parse_context("v : B", arrow_sig)],
                  parse_term("(lamarrow (x:B). ret x) . v", "arrow",
                             arrow_sig),
                  parse_type("B"), form="C")
    tgt, _ = arrow_to_armm(j, arrow_sig)
    nf = normalize(tgt, arrow_sig).term
    assert term_to_text(nf) == "ret J(v)"


def test_translate_dispatch(gmm_sig):
    j = judgement("gmm", [()], parse_term("ret ()", "gmm", gmm_sig),
                  parse_type("T_1(1)"))
    tgt, _ = translate(j, gmm_sig, "gmm", "lnl-rmm")
    assert tgt.calculus == "lnl"
    with pytest.raises(TranslateError):
        translate(j, gmm_sig, "gmm", "armm")


def test_source_must_check(gmm_sig):
    j = judgement("gmm", [()], parse_term("ret ()", "gmm", gmm_sig),
                  parse_type("T_2(1)"))
    with pytest.raises(TranslateError):
        gmm_to_lnl(j, gmm_sig)


# -- corpus properties -------------------------------------------------------

def _gmm_corpus(rng, sig, n):
    g = genmod.Gen(rng, sig, "gmm", ["A", "B"])
    out = []
    while len(out) < n:
        ctx = genmod.seeded_context("gmm", ["A", "B"], g.gen_context(1))
        ty = g.gen_type(2)
        try:
            t = g.gen_term(ctx, ty, rng.randint(1, 10))
        except ValueError:
            continue
        out.append(judgement("gmm", [ctx], t, ty))
    return out


def _arrow_corpus(rng, sig, n):
    g = genmod.Gen(rng, sig, "arrow", ["B", "C"])
    out = []
    while len(out) < n:
        gamma = genmod.seeded_context("arrow", ["B", "C"],
                                      g.gen_context(1) +
                                      (("arr0", parse_type("B ~> C")),))
        if rng.random() < 0.5:
            ty = g.gen_type(2)
            try:
                t = g.gen_term(gamma, ty, rng.randint(1, 8))
            except ValueError:
                continue
            out.append(judgement("arrow", [gamma], t, ty, form="A"))
        else:
            delta = (("w", syntax.base("B")),)
            ty = syntax.base(rng.choice(["B", "C"]))
            t = g.gen_command(gamma, delta, ty, rng.randint(1, 8))
            out.append(judgement("arrow", [gamma, delta], t, ty, form="C"))
    return out


def test_typing_preservation_corpora(gmm_plain_sig, arrow_sig, rng):
    for j in _gmm_corpus(rng, gmm_plain_sig, 40):
        _, trace = gmm_to_lnl(j, gmm_plain_sig)
        assert trace.typing_preserved
    for j in _arrow_corpus(rng, arrow_sig, 40):
        _, trace = arrow_to_armm(j, arrow_sig)
        assert trace.typing_preserved


def test_translation_commutes_with_substitution(gmm_plain_sig, rng):
    """translate(t[u/x]) is alpha-equal to translate(t)[translate(u)/x]."""
    gmm_sig = gmm_plain_sig
    g = genmod.Gen(rng, gmm_sig, "gmm", ["A", "B"])
    done = 0
    while done < 25:
        ctx = genmod.seeded_context("gmm", ["A", "B"])
        xty = g.gen_type(1)
        ty = g.gen_type(1)
        try:
            t = g.gen_term(ctx + (("xx", xty),), ty, 6)
            u = g.gen_term(ctx, xty, 4)
        except ValueError:
            continue
        if "xx" not in syntax.free_vars(t):
            continue
        done += 1
        jt = judgement("gmm", [ctx + (("xx", xty),)], t, ty)
        ju = judgement("gmm", [ctx], u, xty)
        jsub = judgement("gmm", [ctx], bsubst(close_binder(t, "xx"), 0, u),
                         ty)
        t_tr, _ = gmm_to_lnl(jt, gmm_sig)
        u_tr, _ = gmm_to_lnl(ju, gmm_sig)
        sub_tr, _ = gmm_to_lnl(jsub, gmm_sig)
        assert alpha_eq(sub_tr.term,
                        bsubst(close_binder(t_tr.term, "xx"), 0, u_tr.term))


def test_conservativity_reports(gmm_plain_sig, arrow_sig, karr_binding,
                                karmm_binding, rng):
    gmm_sig = gmm_plain_sig
    gl = load_binding("calculus gmm\nbackend gradedlist\n"
                      "carrier A = {a1, a2}\ncarrier B = {b1}\n", gmm_sig)
    lnl_gl = load_binding("calculus lnl\nbackend gradedlist\n"
                          "carrier A = {a1, a2}\ncarrier B = {b1}\n",
                          gmm_sig)
    pairs = genmod.gmm_schema_instances(rng, gmm_sig, ["A", "B"])
    rep = conservativity_harness(pairs, "gmm", gmm_sig,
                                 src_models=[("gl", gl)],
                                 tgt_models=[("lnl", lnl_gl)],
                                 search_depth=3)
    assert rep.ok, rep.render()
    assert all(r.tgt_status != "REFUTED" for r in rep.rows)
    pairs2 = genmod.arrow_schema_instances(rng, arrow_sig, ["B", "C"])
    rep2 = conservativity_harness(pairs2, "arrow", arrow_sig,
                                  src_models=[("karr", karr_binding)],
                                  tgt_models=[("karmm", karmm_binding)],
                                  search_depth=3)
    assert rep2.ok, rep2.render()
    # the arrow beta and eta laws come out Proven, not just un-refuted
    for r in rep2.rows:
        if r.name in ("arr.beta", "arr.eta"):
            assert r.tgt_status == "PROVEN"


def test_an_ill_typed_target_is_a_bug_row(arrow_sig, karr_binding,
                                         karmm_binding, monkeypatch):
    """A translation clause that drops `ret`'s J(-) makes ill-typed
    targets: the harness counts each as a typing failure and reports its
    row as a BUG with the checker's message, instead of raising."""
    real = translate_mod._tr_arrow

    def drop_j(node, kids):
        if node.rule == "cmd-ret":
            return syntax.ret(kids[0])
        return real(node, kids)
    monkeypatch.setattr(translate_mod, "_tr_arrow", drop_j)
    pairs = genmod.arrow_schema_instances(random.Random(7), arrow_sig,
                                          ["B", "C"])
    rep = conservativity_harness(pairs, "arrow", arrow_sig,
                                 src_models=[("karr", karr_binding)],
                                 tgt_models=[("karmm", karmm_binding)],
                                 search_depth=3)
    assert not rep.ok
    bad = [r for r in rep.rows if r.tgt_status == "ILL-TYPED"]
    assert bad and len(bad) <= rep.typing_failures <= 2 * len(bad)
    assert rep.typing_checked == 2 * len(pairs) == 2 * len(rep.rows)
    for r in bad:
        assert not r.ok and r.src_status == "PROVEN"
        assert r.detail.startswith(
            "translation produced an ill-typed judgement: ")
    text = rep.render()
    assert f"typing preserved: {rep.typing_checked - rep.typing_failures}/" \
        f"{rep.typing_checked}\n" in text
    assert f"  BUG {bad[0].name}: source=PROVEN target=ILL-TYPED " in text


def test_unequal_pair_refuted_on_both_sides(arrow_sig, karr_binding,
                                            karmm_binding):
    from relmeta.equations import check_eq
    gamma = parse_context("f : B ~> B", arrow_sig)
    delta = parse_context("w : B", arrow_sig)
    jl = judgement("arrow", [gamma, delta],
                   parse_term("ret w", "arrow", arrow_sig),
                   parse_type("B"), form="C")
    jr = judgement("arrow", [gamma, delta],
                   parse_term("do x <- f . w in ret x", "arrow", arrow_sig),
                   parse_type("B"), form="C")
    vsrc = check_eq(jl, jr, arrow_sig, [("karr", karr_binding)])
    assert vsrc.status == "REFUTED"
    tl, _ = arrow_to_armm(jl, arrow_sig)
    tr, _ = arrow_to_armm(jr, arrow_sig)
    vtgt = check_eq(tl, tr, arrow_sig, [("karmm", karmm_binding)])
    assert vtgt.status == "REFUTED"


def _count_full_checks(monkeypatch):
    """The judgements every layer checks in full, in order, as (calculus,
    form, zones, term, type)."""
    from relmeta import equations, models
    seen = []

    def counting(j, sig, **kw):
        seen.append((j.calculus, j.form, j.zones, j.term, j.ty))
        return check(j, sig, **kw)
    for mod in (equations, models, translate_mod):
        monkeypatch.setattr(mod, "check", counting)
    return seen


def test_a_translation_and_its_verdicts_check_each_judgement_once(
        gmm_plain_sig, monkeypatch):
    """A translate -> check_eq round trip, and a conservativity_harness
    row, make one full check per distinct judgement: check_eq reads the
    targets' checks from their translation, the harness gives each source's
    check to both its translation and its verdict, and the sweep reads a
    normal form's check from the step that reached it, local or full.  A
    second pass over the same sources checks as much as the first."""
    from relmeta.equations import check_eq
    sig = gmm_plain_sig
    gl = "calculus {}\nbackend gradedlist\ncarrier A = {{a1, a2}}\n"
    src_models = [("gl", load_binding(gl.format("gmm"), sig))]
    tgt_models = [("lnl", load_binding(gl.format("lnl"), sig))]
    src = [judgement("gmm", [parse_context("a : A", sig)],
                     parse_term(t, "gmm", sig), parse_type("T_1(A)"))
           for t in ("do x <- ret a in ret x", "ret a")]
    seen = _count_full_checks(monkeypatch)
    passes = []
    for _ in range(2):
        del seen[:]
        targets = [gmm_to_lnl(j, sig)[0] for j in src]
        # the normal forms differ, the sweep does not separate them, and
        # the search does not join them
        assert check_eq(*targets, sig, tgt_models).status == "UNKNOWN"
        # the two sources and the two targets, no normal form again
        assert len(set(seen)) == len(seen) == 4
        assert [j for j in seen if j[0] == "lnl"][:2] == \
            [(t.calculus, t.form, t.zones, t.term, t.ty) for t in targets]
        round_trip = list(seen)
        del seen[:]
        rep = conservativity_harness([("beta", *src)], "gmm", sig,
                                     src_models, tgt_models)
        assert rep.ok and rep.rows[0].src_status == "PROVEN"
        assert len(set(seen)) == len(seen)
        assert seen[:2] == [(j.calculus, j.form, j.zones, j.term, j.ty)
                            for j in src]
        passes.append((round_trip, list(seen)))
    assert passes[0] == passes[1]
