"""The hash and the occurrences a `Term` keeps, against walks made anew.

Each term fills both fields once, from its children's, and keeps them;
`rebind` (and so `shift` and `bsubst`) reads the occurrences to keep a
subterm with no bvar dangling at or past its cutoff without walking it.
The reference walks here are the ones the fields replaced."""

import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import relmeta
from relmeta import gen as genmod
from relmeta import syntax, translate
from relmeta.equations import normalize
from relmeta.signatures import load_signature
from relmeta.syntax import (Term, bsubst, bv, child_binders, free_vars, rebind,
                            shift, uses_bvar, var)

RAW_SIGS = {
    "urmm": "calculus urmm\nobject 2\ngen not : 2 -> 2\n",
    "rmm": "calculus rmm\nobject 2\ngen not : 2 -> 2\n",
    "gmm": "calculus gmm\nobject A\ngrading builtin mult\n",
    "lnl": "calculus lnl\nobject A\ngrading builtin mult\n",
    "arrow": "calculus arrow\nobject B\n",
    "armm": "calculus armm\nobject B\n",
}


def _bits(mask):
    """The positions of the set bits of mask."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def _ref_occ(t):
    """(free names, dangling bvar indices) of t, walked anew."""
    if t.kind == "var":
        return frozenset((t.name,)), frozenset()
    if t.kind == "bvar":
        return frozenset(), frozenset((t.index,))
    names, bvars = set(), set()
    for i, s in enumerate(t.subs):
        n, b = _ref_occ(s)
        c = child_binders(t, i)
        names |= n
        bvars |= {k - c for k in b if k >= c}
    return frozenset(names), frozenset(bvars)


def _ref_rebind(t, outer, depth, e=0):
    """`rebind` as the full walk it was: every node visited, a node kept
    where all its children are."""
    if t.kind == "bvar":
        j = t.index - e
        if j < 0:
            return t
        if j >= len(outer):
            return bv(j - len(outer) + depth + e)
        return _ref_rebind(outer[j], [], e) if e else outer[j]
    if not t.subs:
        return t
    subs = [_ref_rebind(s, outer, depth, e + child_binders(t, i))
            for i, s in enumerate(t.subs)]
    if all(a is b for a, b in zip(subs, t.subs)):
        return t
    return syntax.with_subs(t, subs)


def _rebuilt(t, rename=None):
    """A copy of t made of new nodes, none of them filled; with `rename`,
    each binder's hints renamed by it."""
    hints = tuple(map(rename, t.hints)) if rename else t.hints
    return Term(t.kind, tuple(_rebuilt(s, rename) for s in t.subs), t.name,
                t.index, t.xi, t.tyann, hints)


def _subterms(t, binders=0):
    """(subterm, the number of binders around it) of each position."""
    yield t, binders
    for i, s in enumerate(t.subs):
        yield from _subterms(s, binders + child_binders(t, i))


def _assert_keeps(t, ref, got):
    """got is ref, hints and all, and it is t's node wherever ref is."""
    assert got == ref and repr(got) == repr(ref)
    if ref is t:
        assert got is t
    elif t.subs and ref.kind == t.kind and len(ref.subs) == len(t.subs):
        for a, r, g in zip(t.subs, ref.subs, got.subs):
            _assert_keeps(a, r, g)


def _generated(sig, calc, objects, n, rng):
    """n terms of generated well-typed judgements (`gen.Gen`)."""
    g = genmod.Gen(rng, sig, calc, objects)
    out = []
    while len(out) < n:
        ctx = genmod.seeded_context(calc, objects, g.gen_context(1))
        try:
            out.append(g.gen_term(ctx, g.gen_type(1), rng.randint(2, 8)))
        except ValueError:
            continue
    return out


@pytest.fixture(scope="module")
def corpus():
    """Terms of all six calculi: raw generated terms, `gen.Gen` terms, and
    the seed-1 schema instances the rewrite benchmarks draw from
    (`equations`: rmm and gmm; `conservativity`: gmm and arrow and their
    translations to lnl and armm), with the normal forms of the sides."""
    coin = load_signature(
        (Path(relmeta.__file__).parent / "fixtures" / "coin.sig").read_text())
    gmm = load_signature("calculus gmm\nobject A\nobject B\n"
                         "grading builtin mult\n")
    arrow = load_signature("calculus arrow\nobject B\nobject C\n")
    rng = random.Random(20240811)
    terms = []
    for calc, text in RAW_SIGS.items():
        sig = load_signature(text)
        terms += [genmod.gen_raw_term(rng, calc, sig, depth=rng.randint(1, 4))
                  for _ in range(60)]
    for calc, sig, objects in (("rmm", coin, ["2", "4"]),
                               ("gmm", gmm, ["A", "B"]),
                               ("arrow", arrow, ["B", "C"])):
        terms += _generated(sig, calc, objects, 30, rng)
    judgements = [(j, coin) for _, jl, jr in genmod.rmm_schema_instances(
        random.Random(1), coin, ["2", "4"]) for j in (jl, jr)]
    for make, sig, objects, tr in (
            (genmod.gmm_schema_instances, gmm, ["A", "B"],
             translate.gmm_to_lnl),
            (genmod.arrow_schema_instances, arrow, ["B", "C"],
             translate.arrow_to_armm)):
        for _, jl, jr in make(random.Random(1), sig, objects):
            judgements += [(j, sig) for j in (jl, jr, tr(jl, sig)[0],
                                              tr(jr, sig)[0])]
    for j, sig in judgements:
        terms += [j.term, normalize(j, sig).term]
    assert {t.kind for t in terms} > {"do", "lam", "letpair", "lamarrow"}
    return terms


def test_kept_occurrences_are_the_walks(corpus):
    """At every position of every term: the kept occurrences are the free
    names and dangling bvars a walk finds, and `free_vars` and
    `uses_bvar` read them, under names for the binders around."""
    for t in corpus:
        for s, around in _subterms(t):
            names, mask = s.occ
            want_names, want_bvars = _ref_occ(s)
            assert (names, _bits(mask)) == \
                (want_names, want_bvars), s
            in_force = tuple(f"n{k}" for k in range(around))
            assert free_vars(s, in_force) == want_names | {
                in_force[-1 - k] for k in want_bvars if k < around}
            for k in range(around + 2):
                assert uses_bvar(s, k) == (k in want_bvars)


def test_rebind_gives_what_the_full_walk_gives(corpus):
    """`shift`, `bsubst` and `rebind` on every position give the full
    walk's term, hints and all, and the very node wherever the walk keeps
    it; so do they on a copy whose fields are not filled yet."""
    u_open = Term("pair", (bv(0), var("zz")))
    cases = [lambda s: (shift(s, 1), _ref_rebind(s, [], 1)),
             lambda s: (shift(s, 2, 1), _ref_rebind(s, [], 2, 1)),
             lambda s: (bsubst(s, 0, var("zz")),
                        _ref_rebind(s, [var("zz")], 0)),
             lambda s: (bsubst(s, 1, u_open), _ref_rebind(s, [u_open], 0, 1)),
             lambda s: (rebind(s, [bv(1), var("q"), bv(0)], 2),
                        _ref_rebind(s, [bv(1), var("q"), bv(0)], 2))]
    kept = replaced = 0
    for t in corpus:
        for s, around in _subterms(t):
            for case in cases:
                for x in (s, _rebuilt(s)):
                    got, ref = case(x)
                    _assert_keeps(x, ref, got)
                    kept += ref is x
                    replaced += ref is not x
            if around and not uses_bvar(s, 0):
                _assert_keeps(s, _ref_rebind(s, [], -1, 1),
                              shift(s, -1, 1))
                _assert_keeps(s, _ref_rebind(s, [], -1), shift(s, -1))
    assert kept and replaced


def test_equal_terms_hash_equal(corpus):
    """Terms that `==` equates hash equal: copies whose binders print
    other names, copies filled in another order, and copies made by
    `dataclasses.replace` or `with_subs` of a filled term, whose fields are
    their own and not the original's."""
    for t in corpus:
        h = hash(t)
        renamed = _rebuilt(t, lambda x: x + "_")
        assert renamed == t and hash(renamed) == h
        assert _rebuilt(t, lambda x: "") == t
        assert hash(_rebuilt(t, lambda x: "")) == h
        bottom_up = _rebuilt(t)
        for s, _ in reversed(list(_subterms(bottom_up))):
            hash(s)
        assert hash(bottom_up) == h and bottom_up.occ == t.occ
        if len(t.subs) > 1 and t.subs[0] != t.subs[-1]:
            swapped = replace(t, subs=t.subs[::-1])
            for other in (swapped, syntax.with_subs(t, t.subs[::-1])):
                fresh = _rebuilt(other)
                assert hash(other) == hash(fresh)
                assert other.occ == fresh.occ
                assert (other.occ[0], _bits(other.occ[1])) == \
                    _ref_occ(other)
        rehinted = replace(t, hints=tuple(x + "_" for x in t.hints))
        assert rehinted == t and hash(rehinted) == h


def test_copies_keep_working(corpus):
    """`copy`, `deepcopy` and a pickle round trip give equal terms that
    hash as the original and print as it does."""
    for t in corpus[::7]:
        hash(t)
        for c in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t))):
            assert c == t and hash(c) == hash(t) and c.occ == t.occ
            assert repr(c) == repr(t) and str(c) == str(t)


def test_a_pickled_term_hashes_anew_in_another_process():
    """The pickled state leaves out the kept hash, since a str's hash is
    salted per process: a term pickled under one hash seed and loaded
    under another hashes as the same term parsed there."""
    text = "do x <- u in ret (x, w)"
    src = str(Path(relmeta.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get(
               "PYTHONPATH", "")])}

    def run(code, seed, data=None):
        return subprocess.run(
            [sys.executable, "-c", code], input=data, capture_output=True,
            check=True, env={**env, "PYTHONHASHSEED": seed}).stdout

    data = run("import pickle, sys; from relmeta.syntax import parse_term; "
               f"t = parse_term({text!r}); hash(t); t.occ; "
               "sys.stdout.buffer.write(pickle.dumps(t))", "1")
    out = run("import pickle, sys; from relmeta.syntax import parse_term; "
              "t = pickle.load(sys.stdin.buffer); "
              f"u = parse_term({text!r}); "
              "print(t == u, hash(t) == hash(u), t.occ == u.occ, {u: 1}[t])",
              "2", data)
    assert out.decode().split() == ["True", "True", "True", "1"]
