"""Types are hash-consed and terms are frozen.

Each type structure is one object, however it was built, so `==` on types
is identity; `typecheck.types_equal` still decides equality up to the
grading's equality of grades.  A `Term`'s constructor sets its slots past
the frozen `__setattr__`, which still refuses every assignment."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relmeta
from relmeta import gen as genmod
from relmeta import rules, syntax
from relmeta.equations import check_eq
from relmeta.signatures import BuiltinGrading, load_signature
from relmeta.syntax import (UNIT, UNIT1, Term, TypeExpr, base, gnat, gtensor,
                            jt, parse_term, parse_type, prod, tgr, tt, var)
from relmeta.typecheck import types_equal

GMM_SIG = "calculus gmm\nobject A\nobject B\ngrading builtin mult\n" \
          "op pick : () -> T_2(A)\n"


def test_types_built_every_way_are_one_object(coin_sig):
    t2 = tt(base("2"))
    assert parse_type("T(2)", coin_sig) is t2
    assert parse_type("T(2)") is t2 and TypeExpr("tt", (base("2"),)) is t2
    # a type read from a loaded signature
    assert coin_sig.op_decl("coin").result is t2
    assert coin_sig.op_decl("pair2").params[0][1] is jt(base("2"))
    # a rule schema's type metavariable
    eta = next(r for r in rules.RULES if r.name == "fun.eta")
    assert eta.rows[0].lhs.tyann is TypeExpr("meta", name="X")
    graded = tgr(gtensor(gnat(1), gnat(2)), prod(base("A"), t2))
    for ty in (t2, graded):
        assert pickle.loads(pickle.dumps(ty)) is ty
        assert copy.copy(ty) is ty and copy.deepcopy(ty) is ty
        assert copy.deepcopy([ty, (ty,)])[1][0] is ty
    assert dataclasses.replace(t2, kind="jt") is jt(base("2"))
    assert dataclasses.replace(graded, grade=gnat(2)) is \
        tgr(gnat(2), prod(base("A"), t2))
    assert graded == graded and graded != tgr(gnat(2), graded.subs[0])


def test_a_pickled_type_is_the_table_object_in_another_process():
    """A type pickled under one hash seed and loaded under another is the
    object the constructors build there."""
    src = str(Path(relmeta.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get(
               "PYTHONPATH", "")])}
    build = "from relmeta.syntax import parse_type; " \
            "ty = parse_type('T_(1 * 2)(A * T(2)) -> J(2)'); "

    def run(code, seed, data=None):
        return subprocess.run(
            [sys.executable, "-c", code], input=data, capture_output=True,
            check=True, env={**env, "PYTHONHASHSEED": seed}).stdout

    data = run("import pickle, sys; " + build +
               "sys.stdout.buffer.write(pickle.dumps(ty))", "1")
    out = run("import pickle, sys; t = pickle.load(sys.stdin.buffer); " +
              build + "print(t is ty, t.subs[0] is ty.subs[0])", "2", data)
    assert out.decode().split() == ["True", "True"]


def test_fields_cannot_be_assigned():
    for value, field in ((tt(base("2")), "kind"), (base("2"), "name"),
                         (syntax.pair(var("x"), UNIT), "subs"),
                         (var("x"), "name")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
    assert tt(base("2")).kind == "tt" and var("x").name == "x"


@pytest.mark.skipif(not __debug__, reason="python -O drops assert statements")
def test_unknown_kinds_and_wrong_arities_are_assertion_errors():
    for make in (lambda: TypeExpr("nope"), lambda: TypeExpr("tt"),
                 lambda: TypeExpr("prod", (UNIT1,)),
                 lambda: Term("nope"), lambda: Term("pair", (UNIT,)),
                 lambda: Term("ret", ())):
        with pytest.raises(AssertionError):
            make()


def test_graded_types_equal_up_to_the_grading():
    """Two types that are two objects are equal when their grades are,
    under the grading; the identity test is only a shortcut."""
    a = base("A")
    mult = BuiltinGrading("mult")
    one_two, two = tgr(gtensor(gnat(1), gnat(2)), a), tgr(gnat(2), a)
    assert one_two is not two
    assert types_equal(one_two, two, mult)
    assert types_equal(tt(one_two), tt(two), mult)
    assert not types_equal(one_two, two)
    assert not types_equal(tgr(gnat(3), a), two, mult)
    assert types_equal(two, tgr(gnat(2), base("A")))


def _slice_pass(slice_):
    """check_eq on each pair of the slice, parsed from its text as the
    `equations` benchmark workload reads its items."""
    for sig, jl, jr in slice_:
        ty = parse_type(syntax.type_to_text(jl.ty), sig)
        zone = syntax.parse_context(", ".join(
            f"{x} : {syntax.type_to_text(t)}" for x, t in jl.zones[0]), sig)
        sides = [syntax.judgement(jl.calculus, [zone], parse_term(
            syntax.term_to_text(j.term), jl.calculus, sig), ty)
            for j in (jl, jr)]
        assert check_eq(*sides, sig).status == "PROVEN"


def test_the_type_table_stops_growing(coin_sig):
    """A second pass over a slice of schema instances builds no new type:
    the table holds one entry per distinct type, nothing per term."""
    gmm_sig = load_signature(GMM_SIG)
    rng = random.Random(1)
    slice_ = []
    for _ in range(3):
        slice_ += [(coin_sig, jl, jr) for _, jl, jr in
                   genmod.rmm_schema_instances(rng, coin_sig, ["2", "4"])]
        slice_ += [(gmm_sig, jl, jr) for _, jl, jr in
                   genmod.gmm_schema_instances(rng, gmm_sig, ["A", "B"])]
    _slice_pass(slice_)
    size = len(syntax._TYPES)
    _slice_pass(slice_)
    assert len(syntax._TYPES) == size
