"""Categorical law checking on tabulated data: ground-truth instances,
conversions, induced structure, and mutation soundness."""

import collections
import gc
import hashlib
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import relmeta.lawcheck as lc
from relmeta import graded


@pytest.fixture(scope="module")
def exc():
    return lc.exception_restriction_instance()


@pytest.fixture(scope="module")
def ident():
    return lc.identity_monad_instance()


def test_finset_category_validates():
    c = lc.finset_category(3)
    c.validate()
    assert len(c.objects) == 4
    assert sum(len(m) for m in c.homs.values()) == 60
    # the lexicographic tensor is strictly unital
    assert c.tensor_obj("1", "2") == "2"
    assert c.tensor_obj("2", "2") is None  # partial: 4 is out of range


def test_object_cap():
    with pytest.raises(lc.LawError):
        lc.finset_category(4).validate()


def test_symmetry_tables():
    c = lc.finset_category(3)
    s = c.sigma[("1", "3")]
    s2 = c.sigma[("3", "1")]
    assert c.compose(s2, s) == c.ids["3"]


_CATEGORY_TABLES = ("homs", "comp", "ids", "dom", "cod", "obj_tensor",
                    "mor_tensor", "sigma")
_MONAD_TABLES = ("name", "aobjs", "jmap", "tmap", "eta", "ext_plain",
                 "ext_strong", "ext_j", "jfun.kappa", "jfun.iota")


@pytest.mark.parametrize("build, args, tables, digest", [
    ("finset_category", (1,), _CATEGORY_TABLES,
     "c972b6faa452d2b8c8dda0c693af2f76fff916635e2a777270f3d9322f44fbc7"),
    ("finset_category", (2,), _CATEGORY_TABLES,
     "5a558e2d407b85ae13cee1a468b9165f458d9b63a29cabd3ae624bca2a43ddb6"),
    ("finset_category", (3,), _CATEGORY_TABLES,
     "e693da5872d5931eab12707c54ef97528fcb086d073c0cf38c274d9d909cd2cf"),
    ("exception_restriction_instance", (0, 1), _MONAD_TABLES,
     "159bb60d8dc995b6d41415ea23ad1f0ddc1ba1e26646f4891a5f34cfab45484d"),
    ("exception_restriction_instance", (1, 2), _MONAD_TABLES,
     "6df33bddb094aa1550e6f0def980ac59c074876928c7f4018601245c3b881402"),
    ("exception_restriction_instance", (1, 3), _MONAD_TABLES,
     "16bc0c3b9ea662dd19bc1a2da497d02aae9f985cc58b78aa3c79e9d85d5d5a7c"),
    ("exception_restriction_instance", (2, 3), _MONAD_TABLES,
     "8727242255c4728b6b245ab78931246d73667218a8dcdb27a5b2e40a300a9582"),
    ("identity_monad_instance", (1,), _MONAD_TABLES,
     "2b159c1eacf4645e5dd85b70c38677eadc1d82722cbf4b67c565aac38beaef09"),
    ("identity_monad_instance", (2,), _MONAD_TABLES,
     "c8af6a2a6a8a34f4fb4a66e68536fdd710be240da6bc2cad858495f3b0d65355"),
    ("identity_monad_instance", (3,), _MONAD_TABLES,
     "6c2d8807f2f7f55facf6a5891a94295cd5562855068f785d0b9af5c715b63140"),
])
def test_builtin_tables_are_pinned(build, args, tables, digest):
    """The skeleton's and the builtin instances' tables, entries and dict
    order both, hash as they did when the strong tables were written out
    by hand for each instance."""
    obj = getattr(lc, build)(*args)
    parts = []
    for name in tables:
        value = obj
        for attr in name.split("."):
            value = getattr(value, attr)
        parts.append(repr(list(value.items())) if isinstance(value, dict)
                     else repr(value))
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == digest


def test_rel_monad_laws_pass(exc, ident):
    assert lc.check_rel_monad_laws(exc).ok
    assert lc.check_rel_monad_laws(ident).ok


def test_strong_laws_pass(exc, ident):
    assert lc.check_strong_laws(exc).ok
    assert lc.check_strong_laws(ident).ok
    assert lc.check_j_strong_laws(exc).ok


def test_corrupted_eta_fails_with_witness(exc):
    mut = exc.copy()
    mut.eta["1"] = "f1_2_1"  # send the element to the error point
    rep = lc.check_rel_monad_laws(mut)
    assert not rep.ok
    line = next(l for l in rep.lines if l.status == "FAIL")
    assert line.witness is not None
    assert lc.replay_witness(mut, rep)


def test_restrict_monad_identity_is_noop():
    C = lc.finset_category(2)
    tmap, eta, ext = lc.exception_monad_tables(1)
    aobjs = ("0", "1")
    d = lc.restrict_monad("idrestrict", C, tmap, eta, ext, aobjs,
                          {a: a for a in aobjs})
    assert d.tmap == {a: tmap[a] for a in aobjs}
    assert lc.check_rel_monad_laws(d).ok


def test_restriction_functor_action(exc):
    """T f = (eta o J f)* recovers the exception monad's functor action."""
    C = exc.C
    for a in exc.aobjs:
        for b in exc.aobjs:
            for f in C.hom(a, b):
                tf = exc.ext_plain[(a, b, C.compose(exc.eta[b], f))]
                n, m, images = lc.finset_table(f)
                expect = lc.finset_mor(n + 1, m + 1,
                                       tuple(images) + (m,))
                assert tf == expect


def test_monad_morphism_laws(ident):
    gamma = {a: ident.C.ids[a] for a in ident.aobjs}
    assert lc.check_monad_morphism(gamma, ident, ident).ok


# -- strength maps and the conversion round trips --------------------------------

def test_strength_round_trips(exc, ident):
    for d in (exc, ident):
        theta, _ = lc.strength_from_extension(d)
        assert lc.check_strength_map_laws(theta, d).ok
        ext2, _ = lc.extension_from_strength(theta, d)
        assert ext2
        for k, v in ext2.items():
            assert d.ext_j[k] == v
        d2 = d.copy()
        d2.ext_j = ext2
        theta2, _ = lc.strength_from_extension(d2)
        assert theta2 == theta


def test_identity_theta_is_kappa_conjugate(ident):
    theta, _ = lc.strength_from_extension(ident)
    C = ident.C
    for (a, b), th in theta.items():
        assert th == ident.jfun.kappa[(a, b)]


def test_broken_theta_fails(exc):
    theta, _ = lc.strength_from_extension(exc)
    bad = dict(theta)
    key = next(k for k, mor in theta.items()
               if len(exc.C.hom(exc.C.dom[mor], exc.C.cod[mor])) > 1)
    mor = bad[key]
    homset = exc.C.hom(exc.C.dom[mor], exc.C.cod[mor])
    bad[key] = homset[(homset.index(mor) + 1) % len(homset)]
    rep = lc.check_strength_map_laws(bad, exc)
    assert not rep.ok
    line = next(l for l in rep.lines if l.status == "FAIL")
    assert line.witness is not None  # names the first broken diagram


# -- W-strong ---------------------------------------------------------------------

def test_w_identity_recovers_strong(exc):
    d = exc.copy()
    d.ext_w = dict(d.ext_strong)
    W = lc.identity_functor(d.C)
    rw = lc.check_w_strong_laws(d, W)
    rs = lc.check_strong_laws(d)
    assert rw.ok and rs.ok
    assert [l.status for l in rw.lines] == [l.status for l in rs.lines]


def test_w_strong_mutation_fails(exc):
    d = exc.copy()
    d.ext_w = dict(d.ext_strong)
    W = lc.identity_functor(d.C)
    key = next(k for k, mor in d.ext_w.items()
               if k[0] == "1" and
               len(d.C.hom(d.C.dom[mor], d.C.cod[mor])) > 1)
    mor = d.ext_w[key]
    homset = d.C.hom(d.C.dom[mor], d.C.cod[mor])
    d.ext_w[key] = homset[(homset.index(mor) + 1) % len(homset)]
    assert not lc.check_w_strong_laws(d, W).ok


def test_restricted_index_tables(exc):
    """J-indexed tables pass the J-strong laws even though the full strong
    tables could be absent."""
    d = exc.copy()
    d.ext_strong = None
    assert lc.check_j_strong_laws(d).ok


# -- bistrong ----------------------------------------------------------------------

def test_bistrong_from_strong_passes(exc):
    d = exc.copy()
    d.ext_bi = lc.bistrong_from_strong(d)
    rep = lc.check_bistrong_laws(d)
    assert rep.ok, rep.render()


def test_bistrong_unit_index_reduces_to_strong(exc):
    d = exc.copy()
    d.ext_bi = lc.bistrong_from_strong(d)
    for (gamma, delta, a, b, f), v in d.ext_bi.items():
        if delta == d.C.unit:
            assert v == d.ext_strong[(gamma, a, b, f)]


def test_bistrong_mutation_fails(exc):
    # with carriers capped at 3 the only index pairs whose tables are not
    # degenerate (empty or singleton domains) are the unit ones; mutate
    # there and require a failing law with the cell in the witness
    d = exc.copy()
    d.ext_bi = lc.bistrong_from_strong(d)
    u = d.C.unit
    key = next(k for k, mor in d.ext_bi.items()
               if k[0] == u and k[1] == u and k[2] == "1" and
               len(d.C.hom(d.C.dom[mor], d.C.cod[mor])) > 1)
    mor = d.ext_bi[key]
    homset = d.C.hom(d.C.dom[mor], d.C.cod[mor])
    d.ext_bi[key] = homset[(homset.index(mor) + 1) % len(homset)]
    rep = lc.check_bistrong_laws(d)
    assert not rep.ok
    assert any(l.witness is not None for l in rep.lines)


# -- graded -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def glist():
    return lc.bounded_list_instance()


def test_graded_laws_pass(glist):
    rep = lc.check_graded_laws(glist)
    assert rep.ok, rep.render()
    skips = sum(l.skipped for l in rep.lines)
    assert skips > 0  # out-of-fragment tensors are reported, not hidden


def test_graded_context_naturality_counts_skips():
    # one skip per grade pair (m, n) whose tensor leaves the fragment:
    # 2x2, 2x3, 3x2, 3x3 on grades 1,2,3 and 2x2 on grades 1,2
    for grades, skips in (((1, 2, 3), 4), ((1, 2), 1)):
        gd = lc.bounded_list_instance(grades=grades)
        line = _line(lc.check_graded_laws(gd), "graded-context-naturality")
        assert (line.status, line.skipped) == ("PASS", skips)


def test_graded_degenerate_fragment():
    # the one-grade fragment at the unit reduces to plain monad laws: all
    # combos stay in range and everything passes
    gd = lc.bounded_list_instance(grades=(1,))
    rep = lc.check_graded_laws(gd)
    assert rep.ok
    assert all(l.skipped == 0 for l in rep.lines)


def test_graded_empty_carrier():
    """A carrier with no elements: a function space out of it holds the
    empty map alone, so its cells are empty lists or there are none.  Every
    law passes, and associativity agrees with the scan on every combo that
    involves the carrier."""
    gd = lc.bounded_list_instance(carriers={"E": (), "B": ("b0", "b1")},
                                  grades=(1, 2))
    assert lc.check_graded_laws(gd).ok
    tables, combos = graded._Tables(gd), 0
    for l, m, n, G, A, B, C in _scanned_assoc_combos(gd):
        if "E" in (G, A, B, C):
            assert graded._graded_assoc_combo(tables, G, A, B, C, l, m, n) \
                is (_scan_assoc_combo(gd, l, m, n, G, A, B, C) or True)
            combos += 1
    assert combos == 60


def test_graded_eta_mutation_killed(glist):
    mut = glist.copy()
    mut.eta[("B", "b0")] = ("b1",)
    assert not lc.check_graded_laws(mut, stop_early=True).ok


def test_graded_tx_mutation_killed(glist):
    mut = glist.copy()
    mut.tx[(2, 1, "B", ("b0",))] = ("b0", "b0")
    assert not lc.check_graded_laws(mut, stop_early=True).ok


def test_graded_ext_override_killed(glist, rng):
    muts = list(lc.graded_mutations(glist, rng=rng, ext_samples=4))
    ext_muts = [m for d, m in muts if "ext[" in d]
    assert ext_muts
    for mut in ext_muts:
        assert not lc.check_graded_laws(mut, stop_early=True).ok


def test_graded_sweep_too_large():
    """A function space of more maps than the sweep cap is an error, also
    where every law it would be swept for holds by the bounded-list
    theorem: the clean instance raises at unit-left's maps G x X -> T_2 X,
    13^6 of them, and a unit mutant, whose unit-left fails earlier, at
    associativity's sweep of the same space."""
    gd = lc.bounded_list_instance(
        carriers={"G": ("g0", "g1"), "X": ("x0", "x1", "x2")})
    msg = "graded sweep too large: 13^6"
    with pytest.raises(lc.LawError, match=re.escape(msg)):
        lc.check_graded_laws(gd)
    mut = gd.copy()
    mut.eta[("X", "x0")] = ("x1",)
    with pytest.raises(lc.LawError, match=re.escape(msg)):
        lc.check_graded_laws(mut)


def test_graded_instance_runtime(glist):
    import time
    t0 = time.time()
    lc.check_graded_laws(glist)
    assert time.time() - t0 < 10


# -- systematic single-cell mutation sweeps -----------------------------------------

def test_exception_mutation_sweep_exhaustive(exc):
    total = killed = 0
    for desc, mut in lc.mutations_of(exc, tables=("eta", "ext_plain",
                                                  "ext_strong")):
        total += 1
        if not lc.check_rel_monad_laws(mut).ok or \
                not lc.check_strong_laws(mut).ok:
            killed += 1
    assert total > 40
    assert killed == total


def test_graded_mutation_sweep_smallest():
    small = lc.bounded_list_instance(
        carriers={"U": ("u",), "B": ("b0", "b1")}, grades=(1, 2))
    assert lc.check_graded_laws(small).ok
    total = killed = 0
    for desc, mut in lc.graded_mutations(small):
        total += 1
        if not lc.check_graded_laws(mut, stop_early=True).ok:
            killed += 1
    assert total >= 20
    assert killed == total


def test_underlying_extraction_passes_plain_laws(exc):
    """The underlying extension f* = (f o lambda)* o lambda^{-1} read off at
    the unit context agrees with the plain tables and passes the plain laws
    (the forgetful square commutes)."""
    u = exc.C.unit
    d2 = exc.copy()
    d2.ext_plain = {
        (a, b, f): exc.ext_strong[(u, a, b, f)]
        for a in exc.aobjs for b in exc.aobjs
        for f in exc.C.hom(exc.jmap[a], exc.tmap[b])}
    assert d2.ext_plain == exc.ext_plain
    assert lc.check_rel_monad_laws(d2).ok


_TABLES = ("eta", "ext_plain", "ext_strong", "ext_j", "ext_w", "ext_bi")


def test_copy_shares_the_category_and_no_table(exc):
    """A copy shares the category (W's source too) with its original and
    holds its own tables: a cell changed in the copy is not changed in the
    original."""
    d = _with_every_table(exc)
    before = {name: dict(getattr(d, name)) for name in _TABLES}
    for name in _TABLES:
        c = d.copy()
        assert c.C is d.C and c.wfun.source is d.C
        for table in _TABLES + ("jmap", "tmap"):
            assert getattr(c, table) is not getattr(d, table)
        assert c.jfun.kappa is not d.jfun.kappa
        key = next(k for k, mor in getattr(c, name).items()
                   if len(d.C.hom(d.C.dom[mor], d.C.cod[mor])) > 1)
        _next_cell(c, name, key)
        assert getattr(c, name) != before[name]
        assert {t: getattr(d, t) for t in _TABLES} == before


def test_law_set_checks_leave_the_instance_unchanged(exc, ident):
    """No law set's check writes to the instance it checks, whichever
    tables it has."""
    small = lc.bounded_list_instance(grades=(1, 2))
    insts = [exc, ident, _with_every_table(exc), _with_every_table(ident),
             small]
    ran = 0
    for name, law_set in lc.LAW_SETS.items():
        for inst in insts:
            if law_set.applies(inst):
                d = inst.copy()
                law_set.check(d)
                assert d == inst, name
                ran += 1
    assert ran == 23


def test_bistrong_set_reads_the_strong_tables_it_is_given(exc):
    """The bistrong set induces its tables from the strong ones of the
    instance it is given, so every single-cell mutant of the strong tables,
    copied after a check of the clean instance, fails it."""
    d = exc.copy()
    bistrong = lc.LAW_SETS["bistrong"]
    assert bistrong.check(d).ok
    muts = [m for _, m in lc.mutations_of(d, ("ext_strong",))]
    assert len(muts) == 24
    assert not any(bistrong.check(m).ok for m in muts)


def test_finset_skeleton_signature_loads():
    """The finite-set skeleton renders to signature text and loads back:
    objects 0..3, functions as generators, composites as relations."""
    from relmeta.signatures import load_signature
    pres = lc.finset_skeleton_presentation(2)
    lines = [f"object {o}" for o in pres.objects]
    lines += [f"gen {g.name} : {g.src} -> {g.tgt}"
              for g in pres.generators.values()]
    for lhs, rhs in pres.relations:
        l = ";".join(lhs)
        if rhs:
            lines.append(f"rel {l} = {';'.join(rhs)}")
        else:
            src, _ = pres.word_endpoints(lhs)
            lines.append(f"rel {l} = id_{src}")
    sig = load_signature("\n".join(lines))
    assert len([g for g in sig.category.generators.values()
                if g.src == "2" and g.tgt == "2"]) == 4
    swap = "f2_2_10"
    assert sig.category.normalize_word((swap, swap)) == ()


# -- the quantifier engine: first witness, skip counts, replay -------------------

def _line(rep, law):
    return next(l for l in rep.lines if l.law == law)


def _next_cell(d, table, key):
    """Replace one cell by the next morphism of its hom-set, as
    mutations_of does."""
    tab = getattr(d, table)
    homset = d.C.hom(d.C.dom[tab[key]], d.C.cod[tab[key]])
    assert len(homset) > 1
    tab[key] = homset[(homset.index(tab[key]) + 1) % len(homset)]


def _declared_instances(law):
    """The instances of law's declared domains in order, walked without
    the engine: (every bound value, the quantified ones), or None for a
    subtree cut by a failing guard or a Let whose value is None."""
    def walk(env, shown, steps):
        if not steps:
            yield env, shown
        elif isinstance(steps[0], lc.Guard):
            if steps[0].test(*env):
                yield from walk(env, shown, steps[1:])
            else:
                yield None
        elif isinstance(steps[0], lc.Let):
            v = steps[0].value(*env)
            if v is None:
                yield None
            else:
                yield from walk(env + (v,), shown, steps[1:])
        else:
            dom = steps[0](*env) if callable(steps[0]) else steps[0]
            for v in dom:
                yield from walk(env + (v,), shown + (v,), steps[1:])
    return walk((), (), law.domains)


def _assert_first_witness(law, line):
    """No instance before line's witness fails, the witness's instance
    does, and the skip count covers exactly the instances before it."""
    assert line.law == law.name
    skips = 0
    for inst in _declared_instances(law):
        r = None if inst is None else law.pred(*inst[0])
        if r is None:
            skips += 1
        elif r is not True:
            evidence = () if r is False else r
            assert (line.status, line.witness, line.skipped) == \
                ("FAIL", (law.tag, *inst[1], *evidence), skips)
            return
    assert (line.status, line.witness, line.skipped) == ("PASS", None, skips)


def test_extension_composition_reports_first_witness(exc):
    d = exc.copy()
    _next_cell(d, "ext_plain", ("0", "1", "f0_2_e"))
    _next_cell(d, "ext_plain", ("0", "2", "f0_3_e"))
    line = _line(lc.check_rel_monad_laws(d), "extension-composition")
    # the first failure in (a, b, c, f, g) order, by an independent scan
    C, ext = d.C, d.ext_plain
    first = next(
        (a, b, c, f, g)
        for a, b, c in itertools.product(d.aobjs, repeat=3)
        for f in C.hom(d.jmap[a], d.tmap[b])
        for g in C.hom(d.jmap[b], d.tmap[c])
        if C.compose(ext[(b, c, g)], ext[(a, b, f)]) !=
        ext[(a, c, C.compose(ext[(b, c, g)], f))])
    assert first == ("0", "1", "1", "f0_2_e", "f1_2_1")
    assert line.witness == ("ext-comp",) + first


def _relmonad(d):
    return lc.relmonad_laws(d), lc.check_rel_monad_laws(d)


def _strong(d):
    return lc.strong_laws(d), lc.check_strong_laws(d)


def _jstrong(d):
    return lc.strong_laws(d, "ext_j", d.aobjs), lc.check_j_strong_laws(d)


def _bistrong(d):
    return lc.bistrong_laws(d), lc.check_bistrong_laws(d)


# two corrupted cells of one table, each failing laws at different points
# of the enumeration
PAIRED_MUTATIONS = [
    (_relmonad, "ext_plain", [("0", "1", "f0_2_e"), ("0", "2", "f0_3_e")]),
    (_relmonad, "ext_plain", [("2", "2", "f2_3_12"), ("1", "2", "f1_3_2")]),
    (_strong, "ext_strong", [("1", "1", "2", "f1_3_1"),
                             ("1", "2", "1", "f2_2_11")]),
    (_jstrong, "ext_j", [("1", "2", "2", "f2_3_20"),
                         ("1", "1", "2", "f1_3_0")]),
    (_bistrong, "ext_bi", [("2", "1", "0", "1", "f0_2_e"),
                           ("3", "1", "0", "2", "f0_3_e")]),
]


@pytest.mark.parametrize("law_set, table, cells", PAIRED_MUTATIONS)
def test_paired_mutation_reports_first_witness(exc, law_set, table, cells):
    d = exc.copy()
    d.ext_bi = lc.bistrong_from_strong(d)
    for key in cells:
        _next_cell(d, table, key)
    laws, rep = law_set(d)
    assert not rep.ok
    assert len(laws) == len(rep.lines)
    for law, line in zip(laws, rep.lines):
        _assert_first_witness(law, line)


def _scan_strong_assoc(d):
    """strong-associativity of the full strong tables by plain loops:
    (witness, skips)."""
    C, A, J, T, ext = d.C, d.aobjs, d.jmap, d.tmap, d.ext_strong
    skipped = 0
    for g, e in itertools.product(C.objects, repeat=2):
        eg = C.tensor_obj(e, g)
        if eg is None:
            skipped += 1
            continue
        for a, b, c in itertools.product(A, repeat=3):
            ga = C.tensor_obj(g, J[a])
            if None in (ga, C.tensor_obj(g, T[a]), C.tensor_obj(eg, J[a]),
                        C.tensor_obj(eg, T[a]), C.tensor_obj(e, J[b])):
                skipped += 1
                continue
            for f in C.hom(ga, T[b]):
                if (g, a, b, f) not in ext:
                    skipped += 1
                    continue
                for h in C.hom(C.tensor_obj(e, J[b]), T[c]):
                    gstar = ext.get((e, b, c, h))
                    mid_t = C.tensor_mor(C.ids[e], ext[(g, a, b, f)])
                    mid_j = C.tensor_mor(C.ids[e], f)
                    rhs = None if None in (gstar, mid_t, mid_j) else \
                        ext.get((eg, a, c, C.compose(gstar, mid_j)))
                    if rhs is None:
                        skipped += 1
                    elif C.compose(gstar, mid_t) != rhs:
                        return ("strong-assoc", g, e, a, b, c, f, h), skipped
    return None, skipped


def test_strong_associativity_matches_an_independent_scan(exc, ident):
    """The engine computes the two lifts of f once for every h; its
    witness and skip count are those of the plain loops, on the clean
    instances and on every single-cell mutant of their strong tables."""
    cases = [exc, ident]
    for d in (exc, ident):
        cases += [m for _, m in lc.mutations_of(d, tables=("ext_strong",))]
    failing = 0
    for d in cases:
        line = _line(lc.check_strong_laws(d), "strong-associativity")
        witness, skipped = _scan_strong_assoc(d)
        assert (line.witness, line.skipped) == (witness, skipped)
        failing += witness is not None
    assert failing > 0


def test_clean_instances_count_every_skip(exc, ident):
    """On clean instances every law passes with the skips the declared
    domains and guards give, including the bistrong cells whose unit
    tensor is undefined (12 of 98 and 3 of 72)."""
    for d, cells, skips in ((exc, 98, 12), (ident, 72, 3)):
        d = d.copy()
        d.ext_bi = lc.bistrong_from_strong(d)
        assert len(d.ext_bi) == cells
        assert _line(lc.check_bistrong_laws(d),
                     "bistrong-extension-unit").skipped == skips
        theta, _ = lc.strength_from_extension(d)
        for laws, rep in (_relmonad(d), _strong(d), _jstrong(d),
                          _bistrong(d),
                          (lc.strength_map_laws(theta, d),
                           lc.check_strength_map_laws(theta, d))):
            for law, line in zip(laws, rep.lines):
                _assert_first_witness(law, line)


def _wstrong(d):
    indices = tuple(d.wfun.source.objects)
    return (lc.strong_laws(d, "ext_w", indices, d.wfun),
            lc.check_w_strong_laws(d, d.wfun))


def _strengthmap(d):
    theta, _ = lc.strength_from_extension(d)
    return lc.strength_map_laws(theta, d), lc.check_strength_map_laws(theta, d)


# law set -> its laws and report on an instance, and the tables that its
# single-cell mutants change
ENGINE_SETS = {
    "relmonad": (_relmonad, ("eta", "ext_plain")),
    "strong": (_strong, ("eta", "ext_strong")),
    "jstrong": (_jstrong, ("eta", "ext_j")),
    "wstrong": (_wstrong, ("eta", "ext_w")),
    "bistrong": (_bistrong, ("eta", "ext_bi")),
    "strengthmap": (_strengthmap, ("eta", "ext_plain", "ext_j")),
}


def _with_every_table(d):
    """A copy of d with bistrong tables induced from its strong ones and
    W-strong tables along the identity functor."""
    d = d.copy()
    d.ext_bi = lc.bistrong_from_strong(d)
    d.ext_w, d.wfun = dict(d.ext_strong), lc.identity_functor(d.C)
    return d


@pytest.mark.parametrize("name", ENGINE_SETS)
def test_every_law_reports_its_first_witness(exc, ident, name):
    """Every law of the set reports the first failing instance of its
    declared domains and the skips before it, on both builtin instances
    with every table and on every single-cell mutant of the tables the set
    reads."""
    law_set, tables = ENGINE_SETS[name]
    failing = 0
    for d in (_with_every_table(exc), _with_every_table(ident)):
        for mut in [d] + [m for _, m in lc.mutations_of(d, tables)]:
            laws, rep = law_set(mut)
            assert [law.name for law in laws] == [l.law for l in rep.lines]
            for law, line in zip(laws, rep.lines):
                _assert_first_witness(law, line)
            failing += not rep.ok
    assert failing > 0


def _gammas(d):
    """gamma = the identities of T, and every single-component mutant of
    it: one component replaced by another morphism of its hom-set."""
    ids = {a: d.C.ids[d.tmap[a]] for a in d.aobjs}
    yield "id", ids
    for a, mor in ids.items():
        for alt in d.C.hom(d.C.dom[mor], d.C.cod[mor]):
            if alt != mor:
                yield f"gamma[{a}] := {alt}", {**ids, a: alt}


def test_monad_morphism_reports_its_first_witness(ident):
    """The monad morphism laws of the identity instance to itself, along
    the identities and along every single-component mutant of them."""
    failing = 0
    for _, gamma in _gammas(ident):
        laws = lc.monad_morphism_laws(gamma, ident, ident)
        rep = lc.check_monad_morphism(gamma, ident, ident)
        assert [law.name for law in laws] == [l.law for l in rep.lines]
        for law, line in zip(laws, rep.lines):
            _assert_first_witness(law, line)
        failing += not rep.ok
    assert failing == 3


def _ungraded_reports(exc, ident):
    """The rendered reports of every ungraded law set on both builtin
    instances with every table and on every single-cell mutant of the
    tables the set reads; for the monad morphism, every single-component
    mutant of gamma and every mutant of the target's unit and extension."""
    out = []
    for d in (_with_every_table(exc), _with_every_table(ident)):
        for name, (law_set, tables) in ENGINE_SETS.items():
            for desc, mut in [("clean", d), *lc.mutations_of(d, tables)]:
                out.append(f"{name} {desc}\n{law_set(mut)[1].render()}")
        ids = dict(next(_gammas(d))[1])
        cases = [(desc, gamma, d) for desc, gamma in _gammas(d)]
        cases += [(desc, ids, mut) for desc, mut in
                  lc.mutations_of(d, ("eta", "ext_plain"))]
        for desc, gamma, d2 in cases:
            rep = lc.check_monad_morphism(gamma, d, d2)
            out.append(f"morphism {desc}\n{rep.render()}")
    return out


def test_ungraded_reports_digest(exc, ident):
    """Every ungraded report, witnesses and skip counts included, is the
    one pinned here.  The first-witness tests compare the engine with a
    walk of the same predicates, so a predicate whose meaning changed
    passes them; it does not pass this."""
    reports = _ungraded_reports(exc, ident)
    digest = hashlib.sha256("\n\n".join(reports).encode()).hexdigest()
    assert len(reports) == 319
    assert digest == \
        "b4c1ebf0d5a9ad3fe5ec94ecf37dfe3f30781debbf8f3a2e30f1c4cdd796c51b"


@pytest.mark.parametrize("check, table, key, value, after", [
    (lambda d: lc.check_rel_monad_laws(d), "ext_plain",
     ("1", "2", "f1_3_2"), "f1_3_2", "f1_2_0"),
    (lambda d: lc.check_strong_laws(d), "ext_strong",
     ("1", "1", "2", "f1_3_1"), "f1_3_0", "f1_2_0"),
    (lambda d: lc.check_bistrong_laws(d), "ext_bi",
     ("1", "1", "2", "1", "f2_2_01"), "f2_2_10", "f2_3_01"),
])
def test_a_non_composable_pair_is_an_error(exc, check, table, key, value,
                                           after):
    """A table cell whose value lies in the wrong hom-set makes a law
    compose two morphisms that do not meet: LawError names them, the
    value after the first morphism it meets."""
    d = _with_every_table(exc)
    tab = getattr(d, table)
    assert key in tab and d.C.dom[tab[key]] != d.C.dom[value]
    tab[key] = value
    with pytest.raises(lc.LawError) as err:
        check(d)
    assert str(err.value) == f"not composable: {value} after {after}"


def test_every_graded_law_reports_its_first_witness(rng):
    """The graded laws on the grades-(1,2) instance, its every unit and
    regrade cell mutant and a sample of extension cell mutants: the engine
    quantifies over grades and carriers, the kernels decide each combo."""
    small = lc.bounded_list_instance(grades=(1, 2))
    cases = [small] + [m for _, m in lc.graded_mutations(small, rng=rng,
                                                         ext_samples=6)]
    for gd in cases:
        laws, rep = graded.graded_laws(gd), lc.check_graded_laws(gd)
        assert [law.name for law in laws] == [l.law for l in rep.lines]
        for law, line in zip(laws, rep.lines):
            _assert_first_witness(law, line)
    assert len(cases) > 20


@pytest.mark.parametrize("domains", [
    (), ((0, 1), lc.Guard(lambda a: a)), ((0, 1), lc.Let(lambda a: a))])
def test_a_law_without_an_innermost_quantifier_is_rejected(monkeypatch,
                                                            domains):
    """Rejected before any code is generated for its shape."""
    def no_source(shape):
        raise AssertionError(f"source generated for {shape!r}")

    monkeypatch.setattr(lc, "_ENGINES", {})
    monkeypatch.setattr(lc, "_engine_source", no_source)
    with pytest.raises(lc.LawError, match="innermost step"):
        lc._forall(lc.Law("bad", "bad", domains, lambda *v: True))


def _every_law_set(exc, ident):
    for d in (_with_every_table(exc), _with_every_table(ident)):
        for law_set, _ in ENGINE_SETS.values():
            law_set(d)
    lc.check_graded_laws(lc.bounded_list_instance(grades=(1, 2)))


def test_each_step_shape_is_compiled_once(monkeypatch, exc, ident):
    """The engine compiles each step shape on its first use and reuses it:
    checking every law set again compiles nothing."""
    made = collections.Counter()
    source = lc._engine_source

    def counted(shape):
        made[shape] += 1
        return source(shape)

    monkeypatch.setattr(lc, "_ENGINES", {})
    monkeypatch.setattr(lc, "_engine_source", counted)
    _every_law_set(exc, ident)
    first = dict(made)
    _every_law_set(exc, ident)
    assert made == first and set(first.values()) == {1}
    assert set(lc._ENGINES) == set(first)
    # the shipped laws' shapes, 18 of them, at most 10 steps deep
    assert len(first) == 18 and max(map(len, first)) == 10


def test_engine_source(exc, ident):
    """The generated source is a function of the shape alone: the same in
    processes with other hash seeds.  One shape, written out."""
    assert lc._engine_source("cgcld") == """\
def forall(tag, pred, s0, s1, s2, s3, s4):
    skipped = 0
    for v0 in s0:
        if not s1(v0):
            skipped += 1
        else:
            for v2 in s2:
                v3 = s3(v0, v2)
                if v3 is None:
                    skipped += 1
                else:
                    for v4 in s4(v0, v2, v3):
                        r = pred(v0, v2, v3, v4)
                        if r is None:
                            skipped += 1
                        elif r is not True:
                            return (tag, v0, v2, v4) + \
(() if r is False else r), skipped
    return None, skipped
"""
    _every_law_set(exc, ident)
    shapes = sorted(lc._ENGINES)
    code = ("import sys; from relmeta import lawcheck as lc; "
            "print(repr([lc._engine_source(s) for s in sys.argv[1:]]))")
    for seed in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", code, *shapes],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
        assert out.stdout == repr([lc._engine_source(s) for s in shapes]) + \
            "\n"


def test_graded_stop_early_keeps_first_witness(glist):
    mut = glist.copy()
    mut.tx[(2, 1, "B", ("b0",))] = ("b0", "b0")
    full = lc.check_graded_laws(mut)
    early = lc.check_graded_laws(mut, stop_early=True)
    first = next(l for l in full.lines if l.status == "FAIL")
    assert early.lines[-1] == first
    assert all(l.status == "PASS" for l in early.lines[:-1])


# -- graded witnesses against an independent scan -------------------------------

def _maps(gd, G, X, n, Y):
    """Every map G x X -> T_n Y as a dict, in the kernels' row order."""
    dom = [(g, x) for g in gd.carriers[G] for x in gd.carriers[X]]
    return [dict(zip(dom, vals))
            for vals in itertools.product(gd.tvals(n, Y), repeat=len(dom))]


def _scan_assoc(gd):
    """graded-associativity by gd.ext_value alone: (witness, skips)."""
    grades, names = gd.grades, sorted(gd.carriers)
    skipped = 0
    for l, m, n in itertools.product(grades, repeat=3):
        if not {l * m, m * n, l * m * n} <= set(grades):
            skipped += 1
            continue
        for G, A, B, C in itertools.product(names, repeat=4):
            hit = _scan_assoc_combo(gd, l, m, n, G, A, B, C)
            if hit is not None:
                return ("assoc", l, m, n, G, A, B, C, *hit), skipped
    return None, skipped


def _scan_assoc_combo(gd, l, m, n, G, A, B, C):
    """The first failing (f, g, cell) of one associativity combo, or None.
    The outer loop runs over the smaller of the f and g spaces, then the
    cells, then the other space."""
    lm, mn = l * m, m * n
    fs, gs = _maps(gd, G, A, m, B), _maps(gd, G, B, n, C)
    cells = [(g, xs) for g in gd.carriers[G] for xs in gd.tvals(l, A)]
    loop_f = len(fs) <= len(gs)
    outer, inner = (fs, gs) if loop_f else (gs, fs)
    for o, ov in enumerate(outer):
        pairs = [(ov, iv) if loop_f else (iv, ov) for iv in inner]
        # h = g*_{m,n} o (pi, f)
        hs = [{k: gd.ext_value(G, m, n, B, C, gm, (k[0], v))
               for k, v in f.items()} for f, gm in pairs]
        for g, xs in cells:
            for i, ((f, gm), h) in enumerate(zip(pairs, hs)):
                # g*_{l (x) m, n} is defined on T_{l (x) m} B only, so an
                # f* value outside it fails the law
                fstar = gd.ext_value(G, l, m, A, B, f, (g, xs))
                lhs = gd.ext_value(G, lm, n, B, C, gm, (g, fstar)) \
                    if len(fstar) <= lm else None
                if lhs != gd.ext_value(G, l, mn, A, C, h, (g, xs)):
                    fi, gi = (o, i) if loop_f else (i, o)
                    return f"f#{fi}", f"g#{gi}", g, xs
    return None


def _scan_naturality(gd):
    """graded-context-naturality by gd.ext_value alone: (witness, skips),
    in the order u, cell, f."""
    car, grades, names = gd.carriers, gd.grades, sorted(gd.carriers)
    skipped = 0
    for m, n in itertools.product(grades, repeat=2):
        if m * n not in grades:
            skipped += 1
            continue
        for G2, G, A, B in itertools.product(names, repeat=4):
            fs = _maps(gd, G, A, n, B)
            for u in itertools.product(car[G], repeat=len(car[G2])):
                ut = dict(zip(car[G2], u))
                f2s = [{(g2, a): f[(ut[g2], a)] for g2 in car[G2]
                        for a in car[A]} for f in fs]
                for g2 in car[G2]:
                    for xs in gd.tvals(m, A):
                        for i, (f, f2) in enumerate(zip(fs, f2s)):
                            if gd.ext_value(G2, m, n, A, B, f2, (g2, xs)) != \
                                    gd.ext_value(G, m, n, A, B, f,
                                                 (ut[g2], xs)):
                                return (("naturality", m, n, G2, G, A, B, u,
                                         g2, xs, f"f#{i}"), skipped)
    return None, skipped


def _ext_mutant(gd, G, m, n, A, B, fvals, cell, value=None):
    """gd with f*_{m,n}(cell) set to value, by default the next value of
    its space, for the f : G x A -> T_n B whose values in domain order are
    fvals."""
    f = dict(zip([(g, a) for g in gd.carriers[G] for a in gd.carriers[A]],
                 fvals))
    if value is None:
        space = gd.tvals(m * n, B)
        cur = gd.ext_value(G, m, n, A, B, f, cell)
        value = space[(space.index(cur) + 1) % len(space)]
    mut = gd.copy()
    mut.ext_overrides[((G, m, n, A, B, tuple(sorted(f.items()))), cell)] = \
        value
    return mut


def _oracle_mutants():
    small = lc.bounded_list_instance(grades=(1, 2))
    tiny = lc.bounded_list_instance(carriers={"U": ("u",), "V": ("v",)},
                                    grades=(1, 2))
    tiny3 = lc.bounded_list_instance(carriers={"U": ("u",), "V": ("v",)},
                                     grades=(1, 2, 3))
    duo = lc.bounded_list_instance(carriers={"B": ("b0", "b1")}, grades=(1,))
    # one table written twice at one cell, first with its entries reversed:
    # the kernels and ext_value read both as the same table, and the later
    # entry restores the value the first one changes
    shadow = _ext_mutant(duo, "B", 1, 1, "B", "B",
                         [(), ("b0",), ("b1",), ("b0",)], ("b0", ()))
    (key, cell), value = next(iter(shadow.ext_overrides.items()))
    reversed_key = duo.copy()
    reversed_key.ext_overrides = {((*key[:5], key[5][::-1]), cell): value}
    shadow.ext_overrides = {**reversed_key.ext_overrides, (key, cell): ()}
    return {
        # first failures in the first combo, where the f and g spaces are
        # equal (f outer), and in the second, where g's is smaller (g outer)
        "f-outer": _ext_mutant(small, "B", 1, 1, "B", "B",
                               [("b0",), ("b1",), (), ("b0",)],
                               ("b1", ("b0",))),
        "g-outer": _ext_mutant(small, "B", 1, 1, "B", "U",
                               [("u",), (), ("u",), ()], ("b0", ())),
        "g-outer-late": _ext_mutant(small, "B", 1, 1, "B", "U",
                                    [(), ("u",), ("u",), ()],
                                    ("b1", ("b1",))),
        # failures after an out-of-fragment grade triple, and a clean
        # instance: every skip is counted
        "after-skip": _ext_mutant(tiny, "U", 2, 1, "V", "U", [("u",)],
                                  ("u", ("v", "v"))),
        "grade-2": _ext_mutant(tiny, "V", 1, 2, "U", "V", [("v", "v")],
                               ("v", ())),
        "clean": tiny,
        # an override of h = g*_{m,n} o (pi, f) deciding the first failure
        # with f outer (g-outer is one with g outer)
        "h-override-f-outer": _ext_mutant(tiny, "V", 1, 2, "U", "V",
                                          [("v", "v")], ("v", ()),
                                          ("v", "v")),
        "later-override-wins": shadow,
        # the first of those entries alone: it applies, to the kernels and
        # to ext_value alike
        "reversed-key": reversed_key,
        # two failing cells at the first failing outer row, the later one
        # with the smaller inner row
        "two-cells": _ext_mutant(
            _ext_mutant(duo, "B", 1, 1, "B", "B",
                        [("b0",), (), ("b0",), ("b0",)], ("b0", ("b1",)),
                        ("b1",)),
            "B", 1, 1, "B", "B", [("b1",), (), ("b1",), ("b1",)],
            ("b0", ("b0",)), ("b0",)),
        # a cell of length 3 whose element repeats
        "repeated-element": _ext_mutant(tiny3, "U", 3, 1, "U", "V",
                                        [("v",)], ("u", ("u", "u", "u"))),
        # f*_{1,1} outside T_1 V: the appended column that no g* value
        # equals
        "outside-grade": _ext_mutant(tiny, "U", 1, 1, "U", "V", [("v",)],
                                     ("u", ("u",)), ("v", "v")),
    }


# (associativity witness, skips, naturality witness, skips), as reported by
# the per-row kernels (the first six), the block kernels (the rest but the
# last), which the per-cell associativity kernel replaced, and the per-cell
# kernel ("reversed-key")
ORACLE_EXPECTED = {
    "f-outer": (("assoc", 1, 1, 1, "B", "B", "B", "B", "f#46", "g#3", "b1",
                 ("b0",)), 0,
                ("naturality", 1, 1, "B", "B", "B", "B", ("b1", "b0"), "b0",
                 ("b0",), "f#46"), 0),
    "g-outer": (("assoc", 1, 1, 1, "B", "B", "B", "U", "f#60", "g#5", "b0",
                 ()), 0,
                ("naturality", 1, 1, "B", "B", "B", "U", ("b0", "b0"), "b0",
                 (), "f#8"), 0),
    "g-outer-late": (("assoc", 1, 1, 1, "B", "B", "B", "U", "f#24", "g#5",
                      "b1", ("b1",)), 0,
                     ("naturality", 1, 1, "B", "B", "B", "U", ("b1", "b0"),
                      "b0", ("b1",), "f#6"), 0),
    "after-skip": (("assoc", 2, 1, 1, "U", "U", "V", "U", "f#1", "g#1", "u",
                    ("u", "u")), 1,
                   ("naturality", 2, 1, "U", "V", "V", "U", ("v",), "u",
                    ("v", "v"), "f#1"), 0),
    "grade-2": (("assoc", 1, 1, 2, "V", "U", "U", "V", "f#0", "g#2", "v", ()),
                0,
                ("naturality", 1, 2, "U", "V", "U", "V", ("v",), "u", (),
                 "f#2"), 0),
    "clean": (None, 4, None, 1),
    "h-override-f-outer": (("assoc", 1, 1, 2, "V", "U", "V", "V", "f#1", "g#2",
                            "v", ()), 0,
                           ("naturality", 1, 2, "U", "V", "U", "V", ("v",),
                            "u", (), "f#2"), 0),
    "later-override-wins": (None, 0, None, 0),
    "two-cells": (("assoc", 1, 1, 1, "B", "B", "B", "B", "f#31", "g#60", "b0",
                   ("b0",)), 0,
                  ("naturality", 1, 1, "B", "B", "B", "B", ("b0", "b0"), "b0",
                   ("b0",), "f#62"), 0),
    "repeated-element": (("assoc", 3, 1, 1, "U", "U", "V", "U", "f#1", "g#1",
                          "u", ("u", "u", "u")), 12,
                         ("naturality", 3, 1, "U", "V", "U", "V", ("v",), "u",
                          ("u", "u", "u"), "f#1"), 2),
    "outside-grade": (("assoc", 1, 1, 1, "U", "U", "V", "U", "f#1", "g#0", "u",
                       ("u",)), 0,
                      ("naturality", 1, 1, "U", "V", "U", "V", ("v",), "u",
                       ("u",), "f#1"), 0),
    "reversed-key": (("assoc", 1, 1, 1, "B", "B", "B", "B", "f#0", "g#16", "b0",
                      ()), 0,
                     ("naturality", 1, 1, "B", "B", "B", "B", ("b0", "b0"),
                      "b0", (), "f#16"), 0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_EXPECTED))
def test_graded_witnesses_match_an_independent_scan(name):
    mut = _oracle_mutants()[name]
    rep = lc.check_graded_laws(mut)
    assoc = _line(rep, "graded-associativity")
    nat = _line(rep, "graded-context-naturality")
    got = (assoc.witness, assoc.skipped, nat.witness, nat.skipped)
    assert got == (*_scan_assoc(mut), *_scan_naturality(mut))
    assert got == ORACLE_EXPECTED[name]


def test_override_table_outside_the_domain_is_rejected():
    # the reversed-key override with one more table entry, outside B x B:
    # the kernels read only the domain's entries and ext_value the whole
    # table, so the key is rejected where both read it
    mut = _oracle_mutants()["reversed-key"]
    (key, cell), value = next(iter(mut.ext_overrides.items()))
    mut.ext_overrides = {
        ((*key[:5], key[5] + ((("zz", "b0"), ()),)), cell): value}
    msg = "table entry ('zz', 'b0') is outside B x B"
    with pytest.raises(lc.LawError, match=re.escape(msg)):
        lc.check_graded_laws(mut)
    with pytest.raises(lc.LawError, match=re.escape(msg)):
        mut.ext_value("B", 1, 1, "B", "B", dict(key[5]), cell)


def test_codec_join_of_a_list_outside_the_value_space(glist):
    # carrier B at cap 3: -1 (a list longer than 3) stays -1 after every
    # part, the empty list included
    cb = graded._GradedCodec(glist, "B", 3)
    codes = np.arange(len(cb.vals), dtype=np.int32)
    a, b = (x.ravel() for x in np.meshgrid(codes, codes, indexing="ij"))
    want = [cb.code.get(cb.vals[i] + cb.vals[j], -1) for i, j in zip(a, b)]
    assert cb.join(a, b).tolist() == want
    assert cb.join(np.full(len(codes), -1), codes).tolist() == \
        [-1] * len(codes)
    assert cb.join(np.int32(-1), np.int32(cb.empty)) == -1


def test_graded_assoc_overflowed_prefix_then_empty_part():
    """A combo with cells of length 3 against the independent scan, where
    the right side's first two parts leave T_3 A and the third is empty.

    An override of g*_{1,1} at (u, (a0,)) longer than its grade makes h =
    g*_{1,1} o (pi, f) at (u, a1) the list (a1, a1) for f = [(), (a0,)],
    so h's extension at (u, (a1, a1, a0)) is longer than 3, while the left
    side there is (a1, a1, a1), set at g*_{3,1}(u, (a0, a0)).  The other
    overrides keep the instances before it from failing first: the cells of
    the same f and g whose parts already leave T_3 A come earlier.  The
    whole law fails earlier, at l = 1, where the first override is an f*
    value outside its grade, so the combo is checked on its own."""
    gd = lc.bounded_list_instance(carriers={"A": ("a0", "a1"), "U": ("u",)},
                                  grades=(1, 3))
    g, h = [("a1",), ()], [(), ("a1", "a1")]
    for m, table, xs, value in (
            (1, g, ("a0",), ("a1", "a1")),
            (3, g, ("a0",), ("a1", "a1")),
            (3, g, ("a0", "a0"), ("a1", "a1", "a1")),
            (3, h, ("a1", "a1"), ("a1", "a1", "a1")),
            (3, h, ("a0", "a1", "a1"), ("a1", "a1", "a1")),
            (3, h, ("a1", "a0", "a1"), ("a1", "a1", "a1"))):
        gd = _ext_mutant(gd, "U", m, 1, "A", "A", table, ("u", xs), value)
    got = graded._graded_assoc_combo(graded._Tables(gd), "U", "A", "A", "A",
                                     3, 1, 1)
    want = ("f#1", "g#6", "u", ("a1", "a1", "a0"))
    assert got == _scan_assoc_combo(gd, 3, 1, 1, "U", "A", "A", "A") == want


# the combos of at most this many (f, g) pairs are scanned: the scan visits
# every pair at every cell, 2.9 million on the grades-(1,2) instance, nine
# tenths of them in its four larger combos
SCAN_PAIRS = 81 * 81


def _scanned_assoc_combos(gd):
    """The associativity combos (l, m, n, G, A, B, C) of gd inside its
    fragment with at most SCAN_PAIRS (f, g) pairs."""
    car, names = gd.carriers, sorted(gd.carriers)
    for l, m, n in itertools.product(gd.grades, repeat=3):
        if not {l * m, m * n, l * m * n} <= set(gd.grades):
            continue
        for G, A, B, C in itertools.product(names, repeat=4):
            nf = len(gd.tvals(m, B)) ** (len(car[G]) * len(car[A]))
            ng = len(gd.tvals(n, C)) ** (len(car[G]) * len(car[B]))
            if nf * ng <= SCAN_PAIRS:
                yield l, m, n, G, A, B, C


def _h(gd, l, m, n, G, A, B, C, fi, gi):
    """h = g*_{m,n} o (pi, f) for the f and g of rows fi and gi."""
    f, gm = _maps(gd, G, A, m, B)[fi], _maps(gd, G, B, n, C)[gi]
    return {k: gd.ext_value(G, m, n, B, C, gm, (k[0], v))
            for k, v in f.items()}


def _h_override_mutants(small):
    """Overrides of the extension of h = g*_{m,n} o (pi, f), for the f and
    g of a third of each space and the combo's last cell.  Each key is
    none of the combo's f* and g* keys, so the pairs it patches are the
    combo's only failing ones: two with f outer (4 f rows against 7 g
    rows; 9 against 16, over cells of lengths 0 to 2) and two with g outer
    (16 against 9; 16 against 9, over 14 cells)."""
    out = {}
    for combo in ((1, 1, 2, "U", "B", "U", "B"), (2, 1, 1, "B", "U", "B", "U"),
                  (1, 1, 2, "B", "B", "U", "U"),
                  (2, 1, 1, "B", "B", "U", "B")):
        l, m, n, G, A, B, C = combo
        fi = len(_maps(small, G, A, m, B)) // 3
        gi = len(_maps(small, G, B, n, C)) // 3
        cell = (small.carriers[G][-1], small.tvals(l, A)[-1])
        out[combo] = _ext_mutant(small, G, l, m * n, A, C,
                                 list(_h(small, *combo, fi, gi).values()),
                                 cell)
    return out


def test_graded_assoc_combos_match_the_scan(monkeypatch):
    """Every associativity combo of up to SCAN_PAIRS (f, g) pairs, not only
    the first failing one: the kernel reports what the independent scan
    does, at block budgets of one element (a block per cell), 2,000 (blocks
    of a few cells, short ones padded), the default and 2**40 (a block per
    combo).  The instances are the grades-(1,2) instance, its unit and
    regrade mutants, and overrides of h's extension (_h_override_mutants),
    whose combo fails first at a pair the override patches.  The scan of a
    combo reads the carriers, the grades and the overrides of its four
    extensions alone, so it runs once per combo and set of those."""
    small = lc.bounded_list_instance(grades=(1, 2))
    patched = _h_override_mutants(small)
    assert [(len(_maps(small, G, A, m, B)), len(_maps(small, G, B, n, C)))
            for l, m, n, G, A, B, C in patched] == \
        [(4, 7), (9, 16), (16, 9), (16, 9)]
    cases = [small, *(m for _, m in lc.graded_mutations(small)),
             *patched.values()]
    budgets = (1, 2000, graded.GRADED_BLOCK_ELEMENTS, 1 << 40)
    scans, compared = {}, 0
    for gd in cases:
        tables = graded._Tables(gd)
        for combo in _scanned_assoc_combos(gd):
            l, m, n, G, A, B, C = combo
            reads = {(G, l, m, A, B), (G, l * m, n, B, C), (G, m, n, B, C),
                     (G, l, m * n, A, C)}
            key = (combo, tuple(o for o in gd.ext_overrides.items()
                                if o[0][0][:5] in reads))
            if key not in scans:
                scans[key] = _scan_assoc_combo(gd, *combo)
            for budget in budgets:
                monkeypatch.setattr(graded, "GRADED_BLOCK_ELEMENTS", budget)
                got = graded._graded_assoc_combo(tables, G, A, B, C, l, m, n)
                assert got == (scans[key] or True), (combo, budget)
            compared += 1
    assert compared == 60 * len(cases)
    for combo, gd in patched.items():
        # the witness is a pair whose h is the overridden table, at its cell
        (key, cell), _ = next(iter(gd.ext_overrides.items()))
        fi, gi, *wcell = scans[combo, tuple(gd.ext_overrides.items())]
        assert _h(small, *combo, int(fi[2:]), int(gi[2:])) == dict(key[5])
        assert tuple(wcell) == cell


def _h_matches_by_row(g2, fcol2, coded):
    """graded._h_matches one g row at a time, with one isin per row: the
    reference the kernel must equal."""
    fs, gs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for g, row in enumerate(g2):
        if not np.isin(coded, row).all():
            continue
        rows = np.arange(len(fcol2))
        for k, want in enumerate(coded):
            rows = rows[row[fcol2[rows, k]] == want]
        fs.append(rows)
        gs.append(np.full(len(rows), g, dtype=np.intp))
    return np.concatenate(fs), np.concatenate(gs)


def test_h_matches_equal_the_row_loop(monkeypatch, rng):
    """The (f, g) pairs an override of h's extension patches are the row
    loop's, in its order, at the default block budget and at 100 elements
    (one g row per block wherever f has more than 50 rows).  The overrides
    are one of ext[B,1,3,B,B] on the grades-(1,2,3) instance, whose combo
    has 50,625 g rows, and the extension-override mutants this module
    builds on the grades-(1,2) instance, with 40 sampled ones."""
    calls = []
    kernel = graded._h_matches

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(graded, "_h_matches", recorded)
    small = lc.bounded_list_instance(grades=(1, 2))
    oracle = _oracle_mutants()
    cases = [_ext_mutant(lc.bounded_list_instance(), "B", 1, 3, "B", "B",
                         [("b0",), ("b1",), (), ("b0",)], ("b0", ("b1",))),
             *_h_override_mutants(small).values(),
             *(oracle[k] for k in ("f-outer", "g-outer", "g-outer-late")),
             *(m for _, m in lc.graded_mutations(small, rng=rng,
                                                 ext_samples=40)
               if m.ext_overrides)]
    for gd in cases:
        lc.check_graded_laws(gd)
    assert len(calls) == 33 and len(calls[0][0]) == 50625
    matched = 0
    for g2, fcol2, coded in calls:
        want = _h_matches_by_row(g2, fcol2, coded)
        for budget in (graded.GRADED_BLOCK_ELEMENTS, 100):
            monkeypatch.setattr(graded, "GRADED_BLOCK_ELEMENTS", budget)
            got = kernel(g2, fcol2, coded)
            assert [a.dtype for a in got] == [a.dtype for a in want]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        matched += len(want[0])
    assert matched > 0


def test_graded_override_outside_its_grade(glist):
    # f*_{1,1} of the map B x B -> T_1 B that is b0 everywhere, set to a
    # list of length 3 at (b0, ()): where it is f, no column of g*
    # matches, and the reports are the per-row kernels' ones
    mut = glist.copy()
    f = tuple(((g, b), ("b0",)) for g in ("b0", "b1") for b in ("b0", "b1"))
    mut.ext_overrides[(("B", 1, 1, "B", "B", f), ("b0", ()))] = ("b0",) * 3
    rep = lc.check_graded_laws(mut)
    assert [l.witness for l in rep.lines if l.status == "FAIL"] == [
        ("assoc", 1, 1, 1, "B", "B", "B", "B", "f#0", "g#40", "b0", ()),
        ("naturality", 1, 1, "B", "B", "B", "B", ("b0", "b0"), "b0", (),
         "f#36"),
        ("regrade-compat", 1, 2, 1, "B", "B", "B", "b0", (), "f#40")]


def test_graded_reports_do_not_depend_on_the_block_budget(monkeypatch, rng):
    """Blocks of one (outer, inner) pair cut every combo of context
    naturality, and every extension table, at every row, and blocks of
    associativity hold one cell each, so the first witness must win across
    block edges; a budget of 2**40 makes every combo one block.  The
    mutants are the oracle test's (full reports) and criterion 4's graded
    ones (its stop-early reports).  On the grades-(1,2,3) instance's
    mutants one pair per block takes about 40 times as long as the default
    budget; 32 elements take about 9 times as long and still cut each outer
    row of its wide combos, and each extension table of more than 16 cells,
    into one-row blocks."""
    small = lc.bounded_list_instance(grades=(1, 2))
    cases = [(m, False, 1) for m in _oracle_mutants().values()]
    cases += [(m, True, 1) for _, m in lc.graded_mutations(small)]
    cases += [(m, True, 32) for _, m in lc.graded_mutations(
        lc.bounded_list_instance(), rng=rng, ext_samples=8)]
    want = [lc.check_graded_laws(m, stop_early).render()
            for m, stop_early, _ in cases]
    for small_budget in (False, True):
        got = []
        for m, stop_early, budget in cases:
            monkeypatch.setattr(graded, "GRADED_BLOCK_ELEMENTS",
                                budget if small_budget else 1 << 40)
            got.append(lc.check_graded_laws(m, stop_early).render())
        assert got == want


def test_graded_reports_do_not_depend_on_the_theorem(monkeypatch, glist,
                                                     rng):
    """Where every table a combination reads is at the bounded-list default
    the combination holds by a theorem and no kernel runs
    (_Tables.at_default).  With the theorem refused, every combination is
    swept, and each report is the same, line for line, witnesses and skip
    counts included.  The instances are the builtin one, the grades-(1,2)
    instance with its every unit and regrade cell mutant and 6 sampled
    extension cell mutants, the oracle test's mutants, the overrides of
    h's extension, and instances on which a law first fails where one
    table alone departs that no earlier combination of it reads: the unit
    and regrade mutants of a grades-(1,2) instance whose one-element
    carrier sorts first (regrade compatibility's T_{m >= m2} A), and of
    one-carrier instances at grades (1,2,4) and (1,2,3,6) (its
    T_{m (x) n >= m (x) n2} B and T_{n >= n2} B), and two extension
    mutants (associativity's g*_{m,n}, regrade compatibility's
    f*_{m2,n2})."""
    small = lc.bounded_list_instance(grades=(1, 2))
    first = lc.bounded_list_instance(
        carriers={"A": ("a",), "B": ("b0", "b1")}, grades=(1, 2))
    one = [lc.bounded_list_instance(carriers={"U": ("u",)}, grades=grades)
           for grades in ((1, 2, 4), (1, 2, 3, 6))]
    two = lc.bounded_list_instance(carriers={"U": ("u",), "V": ("v",)})
    cases = [glist, small,
             *(m for _, m in lc.graded_mutations(small, rng=rng,
                                                 ext_samples=6)),
             *_oracle_mutants().values(), *_h_override_mutants(small).values(),
             *(m for gd in (first, *one) for _, m in lc.graded_mutations(gd)),
             _ext_mutant(one[1], "U", 3, 1, "U", "U", [("u",)], ("u", ("u",))),
             _ext_mutant(two, "U", 2, 1, "U", "U", [()], ("u", ("u", "u")))]
    decided = collections.Counter()
    at_default = graded._Tables.at_default

    def counted(self, fmats, reads):
        out = at_default(self, fmats, reads)
        decided[out] += 1
        return out

    monkeypatch.setattr(graded._Tables, "at_default", counted)
    want = [lc.check_graded_laws(gd).lines for gd in cases]
    assert decided[True] > decided[False] > 0
    monkeypatch.setattr(graded._Tables, "at_default", lambda *args: False)
    assert [lc.check_graded_laws(gd).lines for gd in cases] == want


def test_graded_check_memory_peak(monkeypatch, glist):
    """The traced allocation peak of a check of the builtin instance, its
    tables and the transient arrays of its kernels: 5.56 MB before
    associativity was decided in blocks of cells, 5.16 MB after; the bound
    is the former with a tenth to spare.  The bounded-list theorem is
    refused, so that every kernel sweeps, as a clean instance builds no
    table."""
    monkeypatch.setattr(graded._Tables, "at_default", lambda *args: False)
    lc.check_graded_laws(glist)  # numpy loaded, the law engines compiled
    tracemalloc.start()
    try:
        lc.check_graded_laws(glist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.56e6 * 1.1


def _ext_override_mutants(gd, rng, count):
    return [m for d, m in lc.graded_mutations(gd, rng=rng, ext_samples=count)
            if d.startswith("ext[")]


def test_graded_tables_are_built_once_per_check(monkeypatch, glist, rng):
    """Every coded function space and extension table of a check is built
    through the check's store, once per store key."""
    built, made = [], collections.Counter()
    once, fmat_for = graded._Tables._once, graded._fmat_for

    def counted_once(self, key, build):
        def counted():
            built.append(key)
            return build()
        return once(self, key, counted)

    def counted_fmat(*args):
        made["fmat"] += 1
        return fmat_for(*args)

    class ExtVec(graded._ExtVec):
        def __init__(self, *args):
            made["ext"] += 1
            super().__init__(*args)

    monkeypatch.setattr(graded._Tables, "_once", counted_once)
    monkeypatch.setattr(graded, "_fmat_for", counted_fmat)
    monkeypatch.setattr(graded, "_ExtVec", ExtVec)
    mutant, = _ext_override_mutants(glist, rng, 1)
    for gd in (glist, mutant):
        built.clear()
        made.clear()
        lc.check_graded_laws(gd)
        assert len(built) == len(set(built))
        assert made == collections.Counter(key[0] for key in built)
        # only the mutant has tables with overrides applied
        assert any(key[0] == "ext" and key[2] for key in built) == \
            (gd is mutant)


def test_graded_tables_are_freed_when_the_check_ends(monkeypatch, glist):
    """No table outlives its check: not after a full report, one that
    stops at the first failing law (associativity, after tables were
    built), or a check that raises.  The instances are mutants, since a
    law is swept only where a table departs from the bounded-list monad:
    a unit mutant, an extension mutant and, for the check that raises in
    regrade compatibility once a combination's tables are built, a regrade
    mutant.  The cycle collector is off, so the tables must go as the
    check's last reference to its store does."""
    refs = []

    class ExtVec(graded._ExtVec):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    combo = graded._graded_regrade_combo

    def raising(*args):
        combo(*args)
        raise lc.LawError("stop")

    monkeypatch.setattr(graded, "_ExtVec", ExtVec)
    unit, regrade = glist.copy(), glist.copy()
    unit.eta[("B", "b0")] = ("b1",)
    regrade.tx[(2, 1, "B", ("b0",))] = ("b0", "b0")
    mutant = _ext_mutant(glist, "U", 1, 1, "U", "U", [()], ("u", ()))
    gc.disable()
    try:
        for gd, stop_early in ((unit, False), (mutant, False),
                               (mutant, True)):
            refs.clear()
            lc.check_graded_laws(gd, stop_early)
            assert refs and not any(r() for r in refs)
        refs.clear()
        monkeypatch.setattr(graded, "_graded_regrade_combo", raising)
        with pytest.raises(lc.LawError):
            lc.check_graded_laws(regrade)
        assert refs and not any(r() for r in refs)
    finally:
        gc.enable()


def _reports_alone(insts):
    """The graded report of each instance, each from a process that checks
    nothing else (run side by side)."""
    code = ("import pickle, sys; from relmeta import lawcheck as lc; "
            "print(lc.check_graded_laws(pickle.load(sys.stdin.buffer))"
            ".render(), end='')")
    procs = [subprocess.Popen([sys.executable, "-c", code],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for _ in insts]
    outs = [p.communicate(pickle.dumps(gd))[0].decode()
            for p, gd in zip(procs, insts)]
    assert all(p.returncode == 0 for p in procs)
    return outs


def test_graded_checks_are_isolated(glist, rng):
    """Checks share no tables: back to back in one process, in either
    order, each instance gets the report it gets alone.  Besides the
    builtin instance and override mutants of it, the instances include
    one with other grades (another value coding), two overrides of one
    table key (one store key, other contents) and a regrade mutant (other
    regraded tables)."""
    small = lc.bounded_list_instance(grades=(1, 2))
    regrade = small.copy()
    regrade.tx[(2, 1, "B", ("b0",))] = ("b0", "b0")
    insts = [glist, *_ext_override_mutants(glist, rng, 2), small,
             _ext_mutant(small, "U", 1, 1, "U", "U", [()], ("u", ())),
             _ext_mutant(small, "U", 1, 1, "U", "U", [()], ("u", ("u",))),
             regrade]
    alone = _reports_alone(insts)
    assert [r.endswith(" 8/8 laws pass") for r in alone] == \
        [True, False, False, True, False, False, False]
    assert len(set(alone[4:])) == 3
    assert [lc.check_graded_laws(gd).render() for gd in insts] == alone
    assert [lc.check_graded_laws(gd).render() for gd in insts[::-1]] == \
        alone[::-1]


def test_replay_witness_reruns_the_reported_law_set(exc, glist):
    # a J-strong mutant: only the J-indexed tables are corrupted, so the
    # relative-monad laws still pass on it
    d = exc.copy()
    _next_cell(d, "ext_j", ("1", "1", "2", "f1_3_1"))
    rep = lc.check_j_strong_laws(d)
    assert not rep.ok and lc.check_rel_monad_laws(d).ok
    assert lc.replay_witness(d, rep)
    # a witness the instance does not produce does not replay
    fail = next(l for l in rep.lines if l.status == "FAIL")
    forged = lc.LawReport(rep.name, [lc.LawLine(fail.law, "FAIL",
                                                fail.witness[:-1])])
    assert not lc.replay_witness(d, forged)
    assert not lc.replay_witness(exc, rep)

    d = exc.copy()
    d.ext_w = dict(d.ext_strong)
    d.wfun = lc.identity_functor(d.C)
    _next_cell(d, "ext_w", ("1", "1", "2", "f1_3_1"))
    assert lc.replay_witness(d, lc.check_w_strong_laws(d, d.wfun))

    d = exc.copy()
    _next_cell(d, "ext_strong", ("1", "1", "2", "f1_3_1"))
    assert lc.replay_witness(d, lc.check_strong_laws(d))
    d.ext_bi = lc.bistrong_from_strong(exc)
    _next_cell(d, "ext_bi", ("1", "1", "0", "2", "f0_3_e"))
    assert lc.replay_witness(d, lc.check_bistrong_laws(d))

    mut = glist.copy()
    mut.eta[("B", "b0")] = ("b1",)
    assert lc.replay_witness(mut, lc.check_graded_laws(mut, stop_early=True))
    assert not lc.replay_witness(glist, lc.check_graded_laws(glist))


def test_replay_witness_refuses_reports_it_cannot_rerun(exc, ident):
    # both checkers take data besides the instance (strength maps, a
    # monad morphism), so d alone cannot reproduce their reports
    theta, _ = lc.strength_from_extension(exc)
    bad = dict(theta)
    bad[("1", "2")] = next(m for m in exc.C.hom(exc.C.dom[theta[("1", "2")]],
                                                exc.C.cod[theta[("1", "2")]])
                           if m != theta[("1", "2")])
    rep = lc.check_strength_map_laws(bad, exc)
    assert not rep.ok
    with pytest.raises(lc.LawError):
        lc.replay_witness(exc, rep)
    gamma = {a: ident.C.ids[a] for a in ident.aobjs}
    gamma["2"] = "f2_2_10"  # the swap does not preserve the unit
    rep = lc.check_monad_morphism(gamma, ident, ident)
    assert not rep.ok
    with pytest.raises(lc.LawError):
        lc.replay_witness(ident, rep)
