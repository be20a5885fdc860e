import itertools

import pytest

from relmeta.lawcheck import finset_mor, finset_skeleton_presentation
from relmeta.signatures import BuiltinGrading, SignatureError, load_signature
from relmeta.syntax import SyntaxError_, gnat, gname, gtensor, GradeMor


def test_load_coin(coin_sig):
    assert coin_sig.has_op("coin")
    assert coin_sig.op_arity("pair2") == 2
    assert len(coin_sig.theory.axioms) == 3


def test_empty_signature_loads():
    sig = load_signature("")
    assert sig.category.objects == []


def test_finset_skeleton_counts():
    pres = finset_skeleton_presentation(3)
    # functions n -> m number m^n: 2 -> 2 has four
    two_two = [g for g in pres.generators.values()
               if g.src == "2" and g.tgt == "2"]
    assert len(two_two) == 4
    assert len([g for g in pres.generators.values()
                if g.src == "3" and g.tgt == "3"]) == 27


def test_compose_word_identity():
    pres = finset_skeleton_presentation(2)
    assert pres.normalize_word((), at="1") == ()
    swap = finset_mor(2, 2, (1, 0))
    assert pres.normalize_word((swap, swap)) == ()


def test_compose_word_mismatch():
    pres = finset_skeleton_presentation(2)
    f = finset_mor(1, 2, (0,))
    with pytest.raises(SignatureError):
        pres.word_endpoints((f, f))


def test_word_normalization_idempotent():
    pres = finset_skeleton_presentation(2)
    import random
    rng = random.Random(3)
    gens = list(pres.generators.values())
    for _ in range(200):
        # build a random composable word
        g = rng.choice(gens)
        word = [g.name]
        cur = g.tgt
        for _ in range(rng.randint(0, 3)):
            nxt = rng.choice([h for h in gens if h.src == cur])
            word.insert(0, nxt.name)
            cur = nxt.tgt
        nf = pres.normalize_word(tuple(word))
        assert pres.normalize_word(nf, at=g.src if not nf else None) == nf


def test_finset_oracle_composition():
    """composeWord agrees with direct function-table composition on every
    composable pair over sets of size <= 3."""
    pres = finset_skeleton_presentation(3)
    tables = {}
    for n in range(4):
        for m in range(4):
            for images in itertools.product(range(m), repeat=n):
                tables[finset_mor(n, m, images)] = (n, m, images)
    checked = 0
    for g, (n1, m1, im1) in tables.items():
        for f, (n0, m0, im0) in tables.items():
            if m0 != n1:
                continue
            comp = tuple(im1[i] for i in im0)
            expect = () if (comp == tuple(range(n0)) and n0 == m1) else \
                (finset_mor(n0, m1, comp),)
            got = pres.compose_word((g,), (f,))
            assert got == expect or \
                pres.normalize_word(expect, at=str(n0)) == got
            checked += 1
    assert checked > 300


def test_word_cap_error():
    sig_text = "object A\ngen f : A -> A\nwordcap 4\n"
    sig = load_signature(sig_text)
    with pytest.raises(SignatureError):
        sig.category.normalize_word(("f",) * 10)


def test_relation_endpoint_error():
    with pytest.raises(SignatureError):
        load_signature("object A\nobject B\ngen f : A -> B\n"
                       "gen g : B -> A\nrel f = g\n")


def test_undeclared_object_error():
    with pytest.raises(SignatureError):
        load_signature("gen f : A -> B\n")


def test_axiom_type_error():
    with pytest.raises(SignatureError) as e:
        load_signature(
            "calculus rmm\nobject 2\nop coin : () -> T(2)\n"
            "axiom coin = ret () in [] : T(2)\n")
    assert "type-check" in str(e.value)


@pytest.mark.parametrize("ctx, message", [
    ("( : J(A)", "expected a variable name, found '('"),
    ("do : J(A)", "expected a variable name, found 'do'"),
    ("x : J(A) y : J(A)", "expected ']', found 'y'"),
])
def test_axiom_context_is_read_like_a_judgement_context(ctx, message):
    with pytest.raises(SyntaxError_) as e:
        load_signature("calculus rmm\nobject A\nop e : () -> T(A)\n"
                       f"axiom e = e in [{ctx}] : T(A)\n")
    assert message in str(e.value)


def test_builtin_gradings():
    mult = BuiltinGrading("mult")
    assert mult.unit() == gnat(1)
    assert mult.tensor(gnat(2), gnat(3)) == gnat(6)
    assert mult.has_mor(GradeMor(gnat(5), gnat(3)))
    assert not mult.has_mor(GradeMor(gnat(2), gnat(3)))
    assert mult.norm(gtensor(gnat(2), gnat(3))) == gnat(6)
    add = BuiltinGrading("add")
    assert add.unit() == gnat(0)
    assert add.tensor(gnat(2), gnat(3)) == gnat(5)
    comp = mult.compose(GradeMor(gnat(3), gnat(2)), GradeMor(gnat(4), gnat(3)))
    assert comp == GradeMor(gnat(4), gnat(2))


def test_presented_grading():
    sig = load_signature(
        "calculus gmm\nobject A\n"
        "grading object e\ngrading object m\n"
        "grading unit e\n"
        "grading tensor e e = e\ngrading tensor e m = m\n"
        "grading tensor m e = m\ngrading tensor m m = m\n")
    g = sig.grading
    assert g.tensor(gname("m"), gname("m")) == gname("m")
    assert g.has_object(gname("e"))


def test_presented_grading_totality_error():
    with pytest.raises(SignatureError):
        load_signature(
            "calculus gmm\nobject A\n"
            "grading object e\ngrading object m\ngrading unit e\n"
            "grading tensor e e = e\n")
