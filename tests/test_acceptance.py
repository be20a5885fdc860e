"""Acceptance suite: the eight exit criteria, exact tolerances, one
pass/fail line per criterion.

Everything here is pinned: seeds, corpus sizes, carrier sizes, time
budgets.  Lines are written straight to the real stdout so they survive
pytest's capture in piped logs.
"""

import itertools
import random
import sys
import time

import pytest

import relmeta.lawcheck as lc
from relmeta import gen as genmod
from relmeta.equations import check_eq, check_proof, normalize
from relmeta.models import (Dyadic, VDist, VElem, eval_term,
                            load_binding, semantic_eq)
from relmeta.syntax import (alpha_eq, judgement, parse_context, parse_term,
                            parse_type, term_to_text)
from relmeta.translate import arrow_to_armm, conservativity_harness, gmm_to_lnl
from relmeta.typecheck import check

SEED = 20240811

LINES = []  # emitted by the terminal-summary hook in conftest


def report(num, name, ok, extra=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _j(calc, sig, ctx, term, ty, form=None):
    zones = [parse_context(c, sig) for c in ctx] if isinstance(ctx, list) \
        else [parse_context(ctx, sig)]
    return judgement(calc, zones, parse_term(term, calc, sig),
                     parse_type(ty, sig), form=form)


# -- 1: the Stone program-equation suite ---------------------------------------

def test_criterion_1_stone_suite(coin_sig, dist_binding):
    t0 = time.time()
    pairs = [
        ("do x <- coin in ret ()", "ret ()", "T(1)"),
        ("do x <- coin in do y <- coin in ret pair2(x,y)",
         "do y <- coin in do x <- coin in ret pair2(x,y)", "T(4)"),
        ("do x <- coin in ret not x", "coin", "T(2)"),
    ]
    ok = True
    for lhs, rhs, ty in pairs:
        jl = _j("rmm", coin_sig, "", lhs, ty)
        jr = _j("rmm", coin_sig, "", rhs, ty)
        v = check_eq(jl, jr, coin_sig, [("dist", dist_binding)])
        ok &= v.status == "PROVEN"
        ok &= check_proof(v.proof, jl, jr, coin_sig)
        eq, _ = semantic_eq(jl, jr, dist_binding, coin_sig)
        ok &= eq
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(1, "stone-suite", ok, f"{elapsed:.2f}s")


# -- 2: exact coin evaluation ----------------------------------------------------

def test_criterion_2_coin_evaluation(coin_sig, dist_binding):
    j = _j("rmm", coin_sig, "", "coin", "T(2)")
    half = Dyadic.make(1, 1)
    ok = eval_term(j, {}, dist_binding, coin_sig) == \
        VDist(((VElem("tt"), half), (VElem("ff"), half)))
    j2 = _j("rmm", coin_sig, "",
            "do x <- coin in do y <- coin in ret and2(x,y)", "T(2)")
    got = eval_term(j2, {}, dist_binding, coin_sig)
    # brute-force oracle: enumerate the four equiprobable branches
    and_table = {("tt", "tt"): "tt", ("tt", "ff"): "ff",
                 ("ff", "tt"): "ff", ("ff", "ff"): "ff"}
    counts = {}
    for x, y in itertools.product(("tt", "ff"), repeat=2):
        out = and_table[(x, y)]
        counts[out] = counts.get(out, 0) + 1
    expect = VDist(tuple((VElem(e), Dyadic.make(n, 2))
                         for e, n in counts.items()))
    ok &= got == expect
    ok &= got == VDist(((VElem("tt"), Dyadic.make(1, 2)),
                        (VElem("ff"), Dyadic.make(3, 2))))
    report(2, "coin-evaluation", ok)


# -- 3: equational soundness sweep -----------------------------------------------

def test_criterion_3_soundness_sweep(sweep_sig, sweep_dist, sweep_exc,
                                     gmm_sig, glist_binding):
    rng = random.Random(SEED)
    failures = 0
    total = 0
    t0 = time.time()
    for _ in range(60):
        for name, jl, jr in genmod.rmm_schema_instances(
                rng, sweep_sig, ["1o", "2"]):
            total += 1
            for binding in (sweep_dist, sweep_exc):
                eq, w = semantic_eq(jl, jr, binding, sweep_sig)
                if not eq:
                    failures += 1
    for _ in range(52):
        for name, jl, jr in genmod.gmm_schema_instances(
                rng, gmm_sig, ["A", "B"]):
            total += 1
            eq, w = semantic_eq(jl, jr, glist_binding, gmm_sig)
            if not eq:
                failures += 1
    ok = total >= 1000 and failures == 0
    report(3, "soundness-sweep", ok,
           f"{total} instances, {failures} failures,"
           f" {time.time() - t0:.1f}s, seed {SEED}")


# -- 4: law checker ground truth ---------------------------------------------------

def test_criterion_4_law_ground_truth():
    t0 = time.time()
    exc = lc.exception_restriction_instance()
    ok = lc.check_rel_monad_laws(exc).ok and lc.check_strong_laws(exc).ok
    exc_elapsed = time.time() - t0
    ok &= exc_elapsed < 10.0
    t0 = time.time()
    glist = lc.bounded_list_instance()
    ok &= lc.check_graded_laws(glist).ok
    glist_elapsed = time.time() - t0
    ok &= glist_elapsed < 10.0
    # systematic single-cell mutation, 100% kill with replayable witnesses
    total = killed = 0
    for desc, mut in lc.mutations_of(exc, tables=("eta", "ext_plain",
                                                  "ext_strong")):
        total += 1
        rep = lc.check_rel_monad_laws(mut)
        if rep.ok:
            rep = lc.check_strong_laws(mut)
        if not rep.ok:
            killed += 1
            line = next(l for l in rep.lines if l.status == "FAIL")
            assert line.witness is not None
    small = lc.bounded_list_instance(
        carriers={"U": ("u",), "B": ("b0", "b1")}, grades=(1, 2))
    assert lc.check_graded_laws(small).ok
    rng = random.Random(SEED)
    muts = list(lc.graded_mutations(small)) + \
        list(lc.graded_mutations(lc.bounded_list_instance(), rng=rng,
                                 ext_samples=8))
    for desc, mut in muts:
        total += 1
        rep = lc.check_graded_laws(mut, stop_early=True)
        if not rep.ok:
            killed += 1
            line = next(l for l in rep.lines if l.status == "FAIL")
            assert line.witness is not None
    ok &= killed == total
    report(4, "law-ground-truth", ok,
           f"mutations {killed}/{total} killed; exception"
           f" {exc_elapsed:.1f}s, graded {glist_elapsed:.1f}s")


# -- 5: strength/extension conversion round trips -----------------------------------

def test_criterion_5_round_trips():
    ok = True
    for d in (lc.exception_restriction_instance(),
              lc.identity_monad_instance()):
        theta, _ = lc.strength_from_extension(d)
        ok &= lc.check_strength_map_laws(theta, d).ok
        ext2, _ = lc.extension_from_strength(theta, d)
        ok &= bool(ext2)
        for k, v in ext2.items():
            ok &= d.ext_j[k] == v
        d2 = d.copy()
        d2.ext_j = ext2
        theta2, _ = lc.strength_from_extension(d2)
        ok &= theta2 == theta
    report(5, "conversion-round-trips", ok)


# -- 6: typing golden suite -----------------------------------------------------------

def test_criterion_6_typing_golden(coin_sig, lnl_sig, lnl_add_sig):
    from test_typecheck import (GOLDEN, _sig_for,
                                test_duplicate_and_run_both_rejected,
                                test_self_sequencing_program)
    ok = True
    for case in GOLDEN:
        name, calculus, sigkey, form, zones, term_text, ty_text, accept = case
        sig = _sig_for(sigkey, coin_sig)
        zones_parsed = tuple(parse_context(z, sig) for z in zones)
        j = judgement(calculus, zones_parsed,
                      parse_term(term_text, calculus, sig),
                      parse_type(ty_text, sig), form=form)
        if check(j, sig).ok != accept:
            ok = False
    test_self_sequencing_program(lnl_sig, lnl_add_sig)
    test_duplicate_and_run_both_rejected(lnl_sig)
    report(6, "typing-golden-suite", ok, f"{len(GOLDEN)} golden rules")


# -- 7: conservativity harnesses --------------------------------------------------------

def test_criterion_7_conservativity(gmm_plain_sig, arrow_sig, karr_binding,
                                    karmm_binding):
    rng = random.Random(SEED)
    gmm_sig = gmm_plain_sig
    # typing preservation over >= 300 judgements per direction
    gtyped = atyped = 0
    g = genmod.Gen(rng, gmm_sig, "gmm", ["A", "B"])
    while gtyped < 300:
        ctx = genmod.seeded_context("gmm", ["A", "B"], g.gen_context(1))
        try:
            ty = g.gen_type(2)
            t = g.gen_term(ctx, ty, rng.randint(1, 10))
        except ValueError:
            continue
        _, trace = gmm_to_lnl(judgement("gmm", [ctx], t, ty), gmm_sig)
        assert trace.typing_preserved
        gtyped += 1
    ga = genmod.Gen(rng, arrow_sig, "arrow", ["B", "C"])
    while atyped < 300:
        gamma = genmod.seeded_context(
            "arrow", ["B", "C"],
            ga.gen_context(1) + (("arr0", parse_type("B ~> C")),))
        if rng.random() < 0.5:
            try:
                ty = ga.gen_type(2)
                t = ga.gen_term(gamma, ty, rng.randint(1, 8))
            except ValueError:
                continue
            j = judgement("arrow", [gamma], t, ty, form="A")
        else:
            delta = (("w", parse_type("B")),)
            ty = parse_type(rng.choice(["B", "C"]))
            t = ga.gen_command(gamma, delta, ty, rng.randint(1, 8))
            j = judgement("arrow", [gamma, delta], t, ty, form="C")
        _, trace = arrow_to_armm(j, arrow_sig)
        assert trace.typing_preserved
        atyped += 1
    # axiom-instance preservation: never Refuted after translation
    gl = load_binding("calculus gmm\nbackend gradedlist\n"
                      "carrier A = {a1, a2}\ncarrier B = {b1}\n", gmm_sig)
    lnl_gl = load_binding("calculus lnl\nbackend gradedlist\n"
                          "carrier A = {a1, a2}\ncarrier B = {b1}\n",
                          gmm_sig)
    gpairs = []
    for _ in range(3):
        gpairs.extend(genmod.gmm_schema_instances(rng, gmm_sig, ["A", "B"]))
    grep = conservativity_harness(gpairs, "gmm", gmm_sig,
                                  src_models=[("gl", gl)],
                                  tgt_models=[("lnl", lnl_gl)],
                                  search_depth=3)
    apairs = []
    for _ in range(3):
        apairs.extend(genmod.arrow_schema_instances(rng, arrow_sig,
                                                    ["B", "C"]))
    arep = conservativity_harness(apairs, "arrow", arrow_sig,
                                  src_models=[("karr", karr_binding)],
                                  tgt_models=[("karmm", karmm_binding)],
                                  search_depth=3)
    ok = grep.ok and arep.ok
    ok &= all(r.tgt_status != "REFUTED" for r in grep.rows + arep.rows)
    # the arrow beta/eta laws are Proven, not merely unrefuted
    ok &= all(r.tgt_status == "PROVEN" for r in arep.rows
              if r.name in ("arr.beta", "arr.eta"))
    report(7, "conservativity", ok,
           f"typing {gtyped}+{atyped} judgements;"
           f" {len(gpairs)}+{len(apairs)} equation pairs")


# -- 8: confluence smoke test --------------------------------------------------------------

def test_criterion_8_confluence(sweep_sig):
    rng = random.Random(SEED)
    g = genmod.Gen(rng, sweep_sig, "rmm", ["1o", "2"])
    made = 0
    t0 = time.time()
    while made < 1000:
        ctx = genmod.seeded_context("rmm", ["1o", "2"], g.gen_context(1))
        ty = g.gen_type(1)
        try:
            t = g.gen_term(ctx, ty, rng.randint(2, 12))
        except ValueError:
            continue
        made += 1
        j = judgement("rmm", [ctx], t, ty)
        # normalize type-checks every step's result, so subject reduction
        # holds along all five strategies
        base = normalize(j, sweep_sig).term
        for k in range(5):
            alt = normalize(j, sweep_sig,
                            rng=random.Random(SEED + 7919 * made + k)).term
            assert alpha_eq(alt, base), term_to_text(t)
    report(8, "confluence-smoke", ok := True,
           f"{made} terms x 5 strategies, {time.time() - t0:.1f}s,"
           f" seed {SEED}")
