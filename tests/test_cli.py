"""CLI exit codes, output determinism, and the machine-readable mode."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BARE_DIST_MB, EXC_MB, fixture_path, golden_sig_path
from relmeta import cli, lawcheck
from relmeta.signatures import load_signature

RUN = [sys.executable, "-m", "relmeta.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_eq_proven_exit_zero():
    r = run_cli("eq", "--theory", fixture_path("coin.sig"),
                "--model", "dist=" + fixture_path("dist.mb"),
                fixture_path("stone1.eq"))
    assert r.returncode == 0
    assert "PROVEN" in r.stdout


def test_eq_unknown_exit_two(tmp_path):
    path = write(tmp_path, "u.eq", """
calculus rmm
ctx z : J(2)
lhs do x <- coin in ret x
rhs ret z
type T(2)
""")
    r = run_cli("eq", "--theory", fixture_path("coin.sig"), path)
    assert r.returncode == 2
    assert "UNKNOWN" in r.stdout


def test_eq_refuted_exit_one(tmp_path):
    path = write(tmp_path, "r.eq", """
calculus rmm
ctx z : J(2)
lhs do x <- coin in ret x
rhs ret z
type T(2)
""")
    r = run_cli("eq", "--theory", fixture_path("coin.sig"),
                "--model", "dist=" + fixture_path("dist.mb"), path)
    assert r.returncode == 1
    assert "REFUTED" in r.stdout and "witness" in r.stdout


def test_typecheck_reject_names_rule(tmp_path):
    path = write(tmp_path, "bad.term", """
calculus lnl
lctx s : gr(2)
form C
term (s, s)
type gr(2) * gr(2)
""")
    sig = write(tmp_path, "g.sig",
                "calculus lnl\nobject A\ngrading builtin mult\n")
    r = run_cli("typecheck", "--sig", sig, path)
    assert r.returncode == 1
    assert "linear" in r.stdout


@pytest.mark.parametrize("sig, term", [
    ("calculus gmm\nobject A\n",
     "calculus gmm\nctx x : A\nterm ret x\ntype A\n"),
    ("calculus lnl\nobject A\n",
     "calculus lnl\nform C\nterm merge ()\ntype I\n"),
], ids=["gmm-ret", "lnl-merge"])
def test_graded_former_without_a_grading_is_rejected(tmp_path, capsys, sig,
                                                     term):
    assert cli.main(["typecheck", "--sig", write(tmp_path, "g.sig", sig),
                     write(tmp_path, "g.term", term)]) == 1
    assert "needs a grading" in capsys.readouterr().out


def test_typecheck_accept_prints_derivation(tmp_path):
    path = write(tmp_path, "ok.term", """
calculus rmm
term do x <- coin in ret not x
type T(2)
""")
    r = run_cli("typecheck", "--sig", fixture_path("coin.sig"), path)
    assert r.returncode == 0
    assert "children=" in r.stdout


def test_eval_coin(tmp_path):
    path = write(tmp_path, "c.term", """
calculus rmm
term do x <- coin in do y <- coin in ret and2(x,y)
type T(2)
""")
    r = run_cli("eval", "--sig", fixture_path("coin.sig"),
                "--model", fixture_path("dist.mb"), path)
    assert r.returncode == 0
    assert "{ff:3/2^2, tt:1/2^2}" in r.stdout


def test_normalize(tmp_path):
    path = write(tmp_path, "n.term", """
calculus rmm
ctx y : J(2)
term do x <- ret y in ret not not x
type T(2)
""")
    r = run_cli("normalize", "--sig", fixture_path("coin.sig"), path)
    assert r.returncode == 0
    assert "normal form: ret y" in r.stdout


@pytest.mark.parametrize("mode, out", [
    ("txt", "# relmeta seed=0\nrewriting exceeded the step budget 1\n"),
    ("json", '{"verdict": "budget-exceeded"}\n')], ids=["txt", "json"])
def test_normalize_step_budget(mode, out, capsys):
    """`--step-budget` caps the rewrite steps: a normalization that needs
    more is reported as over budget, with the exit code of an undecided
    answer."""
    args = ["--json"] if mode == "json" else []
    term = Path(__file__).parent / "golden" / "normalize" / "rmm_assoc.term"
    assert cli.main(args + ["--step-budget", "1", "normalize", "--sig",
                            fixture_path("coin.sig"), str(term)]) == \
        cli.EXIT_UNKNOWN == 2
    assert capsys.readouterr().out == out


def test_lawcheck_pass_and_fail(tmp_path):
    r = run_cli("lawcheck", fixture_path("exception.inst"), "--laws",
                "strong")
    assert r.returncode == 0
    assert "PASS" in r.stdout
    r2 = run_cli("lawcheck", fixture_path("gradedlist.inst"), "--laws",
                 "graded")
    assert r2.returncode == 0
    bad = write(tmp_path, "bad.inst", """
objects A
hom A A = [idA, eA]
id A = idA
comp idA idA = idA
comp idA eA = eA
comp eA idA = eA
comp eA eA = eA
aobj A
tmap A = A
eta A = eA
ext A A idA = idA
ext A A eA = eA
""")
    r3 = run_cli("lawcheck", bad, "--laws", "relmonad")
    assert r3.returncode == 1
    assert "FAIL" in r3.stdout


def test_translate_cli(tmp_path):
    sig = write(tmp_path, "g.sig",
                "calculus gmm\nobject A\ngrading builtin mult\n")
    path = write(tmp_path, "g.term", """
calculus gmm
ctx u : T_2(A)
term do x <- u in ret x
type T_2(A)
""")
    r = run_cli("translate", "--sig", sig, "--from", "gmm", "--to",
                "lnl-rmm", path)
    assert r.returncode == 0
    assert "typing preserved: True" in r.stdout


def test_translate_unannotated_arrow_abstraction(tmp_path):
    """An arrow abstraction without a binder annotation, which the checker
    types against the expected arrow type, translates with the domain of
    that type."""
    sig = write(tmp_path, "a.sig", "calculus arrow\nobject B\nobject C\n")
    path = write(tmp_path, "a.term", """
calculus arrow
ctx f : B ~> C
form A
term lamarrow x. f . x
type B ~> C
""")
    r = run_cli("translate", "--sig", sig, "--from", "arrow", "--to",
                "armm", path)
    assert r.returncode == 0, r.stderr
    assert "target: [armm/A] f : B => T(C) |- : lamarrow (x:B). f . x" \
        " : B => T(C)\n" in r.stdout


def test_prove_cli(tmp_path):
    eq = write(tmp_path, "p.eq", """
calculus rmm
ctx a : J(Atom), b : J(Val)
lhs do z <- assign(a,b) in lookup(a)
rhs do z <- assign(a,b) in ret b
type T(Val)
""")
    proof = write(tmp_path, "p.proof",
                  "ax1 at root with {x := a, y := b} lr fwd\n")
    r = run_cli("prove", "--theory", fixture_path("store.sig"), eq, proof)
    assert r.returncode == 0
    bad = write(tmp_path, "bad.proof", "ax2 at root lr fwd\n")
    r2 = run_cli("prove", "--theory", fixture_path("store.sig"), eq, bad)
    assert r2.returncode == 1


GOLDEN = Path(__file__).parent / "golden" / "lawcheck"


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("name", ["exception", "identity", "gradedlist",
                                  "tiny"])
def test_lawcheck_golden(name, mode, monkeypatch, capsys):
    """`lawcheck --laws all` on each shipped instance, byte for byte.  Run
    from the fixture directory: explicit instances are named by the path
    they were given as."""
    monkeypatch.chdir(Path(fixture_path(f"{name}.inst")).parent)
    args = ["--json"] if mode == "json" else []
    assert cli.main(args + ["lawcheck", f"{name}.inst", "--laws", "all"]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / f"{name}.{mode}").read_bytes()


def test_lawcheck_failing_strong_golden(monkeypatch, capsys):
    """A failing strong report, byte for byte: two laws fail, each with the
    skips counted before its witness, some of them by a hoisted Guard or
    Let.  The instance is the builtin exception instance written out as
    tables, with one strong extension cell changed."""
    monkeypatch.chdir(GOLDEN)
    d = cli.load_instance("exception_strong_mutant.inst")
    exc = lawcheck.exception_restriction_instance()
    cell = ("2", "0", "1", "f0_2_e")
    assert (exc.ext_strong[cell], d.ext_strong[cell]) == \
        ("f2_2_11", "f2_2_00")
    assert d.ext_strong == {**exc.ext_strong, cell: "f2_2_00"}
    for name in ("homs", "comp", "ids", "unit", "obj_tensor", "mor_tensor"):
        assert getattr(d.C, name) == getattr(exc.C, name), name
    for name in ("aobjs", "jmap", "tmap", "eta", "ext_plain"):
        assert getattr(d, name) == getattr(exc, name), name
    assert cli.main(["lawcheck", "--laws", "strong",
                     "exception_strong_mutant.inst"]) == 1
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "exception_strong_mutant.txt").read_bytes()


EQ_GOLDEN = Path(__file__).parent / "golden" / "eq"
EQ_THEORY = {"stone1": ["coin.sig", "--model", "dist=dist.mb"],
             "stone2": ["coin.sig", "--model", "dist=dist.mb"],
             "stone3": ["coin.sig", "--model", "dist=dist.mb"],
             "store_d1": ["store.sig"], "store_d2": ["store.sig"]}


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(EQ_THEORY))
def test_eq_golden(name, mode, monkeypatch, capsys):
    """`eq` on each shipped equation file with its theory and models, byte
    for byte: the same verdicts and the same valley proofs."""
    monkeypatch.chdir(Path(fixture_path(f"{name}.eq")).parent)
    args = ["--json"] if mode == "json" else []
    cli.main(args + ["eq", "--theory", *EQ_THEORY[name], f"{name}.eq"])
    assert capsys.readouterr().out.encode() == \
        (EQ_GOLDEN / f"{name}.{mode}").read_bytes()


@pytest.mark.parametrize("name", sorted(EQ_THEORY))
def test_eq_golden_proof_replays(name, tmp_path, capsys):
    lines = (EQ_GOLDEN / f"{name}.txt").read_text().splitlines()
    assert lines[1] == "PROVEN"
    proof = write(tmp_path, f"{name}.proof", "\n".join(lines[2:]) + "\n")
    assert cli.main(["prove", "--theory", fixture_path(EQ_THEORY[name][0]),
                     fixture_path(f"{name}.eq"), proof]) == 0
    assert capsys.readouterr().out.endswith("proof checked\n")



def test_eq_golden_refuted(monkeypatch, capsys):
    """A REFUTED verdict whose witness is a distribution off the lattice's
    vertices, byte for byte."""
    monkeypatch.chdir(EQ_GOLDEN)
    for mode in ("txt", "json"):
        args = ["--json"] if mode == "json" else []
        assert cli.main(args + ["eq", "--theory", fixture_path("coin.sig"),
                                "--model", "dist=" + fixture_path("dist.mb"),
                                "refuted_dist.eq"]) == 1
        assert capsys.readouterr().out.encode() == \
            (EQ_GOLDEN / f"refuted_dist.{mode}").read_bytes()


@pytest.mark.parametrize("binding, name, code, err", [
    # not a model of the coin theory, and separates the sides of its ax1
    (EXC_MB, "stone1", 0, ""),
    # no pair2 and no and2: every sweep that reaches them raises
    (BARE_DIST_MB, "stone2", 0, ""),
    (BARE_DIST_MB, "refuted_dist", 3,
     "error: binding has no interpretation for operation and2\n"),
])
def test_eq_with_a_binding_that_is_not_a_model(binding, name, code, err,
                                               tmp_path, capsys):
    """A binding that is not a model of the theory refutes nothing the
    search proves, and a sweep's error is reported only when the search
    fails as well: the verdicts and errors of the search-then-sweep
    order."""
    mb = write(tmp_path, "m.mb", binding)
    local = EQ_GOLDEN / f"{name}.eq"
    eq = str(local) if local.exists() else fixture_path(f"{name}.eq")
    assert cli.main(["eq", "--theory", fixture_path("coin.sig"),
                     "--model", f"m={mb}", eq]) == code
    out = capsys.readouterr()
    if code == 0:
        assert out.out == (EQ_GOLDEN / f"{name}.txt").read_text()
    assert out.err == err


EVAL_GOLDEN = Path(__file__).parent / "golden" / "eval"
# program -> (signature, model binding); names not in the golden directory
# are shipped fixtures
EVAL_PROGRAMS = {"dist_pair": ("coin.sig", "dist.mb"),
                 "exc_throw": ("coin.sig", "exc.mb"),
                 "glist_pairs": ("gmm.sig", "gmm.mb"),
                 "lnl_curry": ("lnl.sig", "lnl.mb"),
                 "arrow_lam": ("arrow.sig", "karr.mb"),
                 "arrow_cmd": ("arrow.sig", "karr.mb")}


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(EVAL_PROGRAMS))
def test_eval_golden(name, mode, monkeypatch, capsys):
    """`eval` on closed programs: a distribution, an exception, a graded
    list, and function tables from lam and lamarrow, byte for byte."""
    monkeypatch.chdir(EVAL_GOLDEN)
    sig, model = (f if (EVAL_GOLDEN / f).exists() else fixture_path(f)
                  for f in EVAL_PROGRAMS[name])
    args = ["--json"] if mode == "json" else []
    assert cli.main(args + ["eval", "--sig", sig, "--model", model,
                            f"{name}.term"]) == 0
    assert capsys.readouterr().out.encode() == \
        (EVAL_GOLDEN / f"{name}.{mode}").read_bytes()


TRANSLATE_ARGS = {"gmm": ["--from", "gmm", "--to", "lnl"],
                  "presented": ["--from", "gmm", "--to", "lnl"],
                  "arrow": ["--from", "arrow", "--to", "armm"]}
REJECTED = {"lnl_unused", "rmm_reject"}


def _judgement_goldens():
    for cmd in ("typecheck", "normalize", "translate"):
        for term in sorted((Path(__file__).parent / "golden" / cmd)
                           .glob("*.term")):
            yield cmd, term.stem


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("cmd, name", list(_judgement_goldens()))
def test_judgement_golden(cmd, name, mode, monkeypatch, capsys):
    """`typecheck`, `normalize` and `translate` on judgements of all six
    calculi that use every binding rule, byte for byte: derivations with
    their fresh binder names, rewrite steps, and translated terms."""
    golden = Path(__file__).parent / "golden" / cmd
    monkeypatch.chdir(golden)
    extra = TRANSLATE_ARGS[name.split("_", 1)[0]] if cmd == "translate" \
        else []
    args = ["--json"] if mode == "json" else []
    assert cli.main(args + [cmd, "--sig", golden_sig_path(name), *extra,
                            f"{name}.term"]) == \
        (1 if name in REJECTED else 0)
    assert capsys.readouterr().out.encode() == \
        (golden / f"{name}.{mode}").read_bytes()


def test_form_term_is_form_a(tmp_path, capsys):
    """`form term` names the A form and `form command` the C form; the
    form is mapped before the zones are cut, so an lnl `form term` file
    evaluates like the same file with `form A`."""
    body = "calculus lnl\nterm lam (x:A). x\ntype A -> A\n"
    outs = []
    for form in ("A", "term"):
        path = write(tmp_path, f"{form}.term", f"form {form}\n" + body)
        assert cli.main(["eval", "--sig", str(EVAL_GOLDEN / "lnl.sig"),
                         "--model", str(EVAL_GOLDEN / "lnl.mb"), path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "value: " in outs[0]
    cmd = write(tmp_path, "cmd.term",
                "calculus arrow\nform command\nctx f : B ~> C\n"
                "dctx b : B\nterm f . b\ntype C\n")
    j = cli.load_judgement(cmd, load_signature(
        (EVAL_GOLDEN / "arrow.sig").read_text()))
    assert (j.form, len(j.zones)) == ("C", 2)


def test_usage_errors(tmp_path):
    # builtin instance arguments: non-integers, negative or duplicate
    # grades, unknown keys and sizes past the caps are usage errors
    for i, spec in enumerate([
            "graded-list grades=-1", "graded-list grades=x",
            "graded-list grades=1,1", "graded-list grades=4",
            "graded-list grades", "graded-list foo=3",
            "exception-restriction amax=x", "exception-restriction amax=-1",
            "exception-restriction amax=3 cmax=3", "identity cmax=9",
            "identity cmax=0", "nonesuch", ""]):
        path = write(tmp_path, f"b{i}.inst", f"builtin {spec}\n")
        assert cli.main(["lawcheck", path]) == 3, spec
    # grade 0 alone is a fragment like any other
    path = write(tmp_path, "g0.inst", "builtin graded-list grades=0\n")
    assert cli.main(["lawcheck", path]) == 0
    r = run_cli("eq", "--theory", "/nonexistent.sig", "/nonexistent.eq")
    assert r.returncode == 3
    r2 = run_cli("frobnicate")
    assert r2.returncode == 3
    r3 = run_cli("--workers", "0", "lawcheck", fixture_path("tiny.inst"))
    assert r3.returncode == 3
    r4 = run_cli("--carrier-cap", "5", "lawcheck", fixture_path("tiny.inst"))
    assert r4.returncode == 3
    term = str(GOLDEN.parent / "typecheck" / "lnl_lam.term")
    sig = ("--sig", golden_sig_path("lnl_lam"))
    assert run_cli("typecheck", *sig, term).returncode == 0
    r5 = run_cli("typecheck", *sig, "--calculus", "lnl", term)
    assert r5.returncode == 3


@pytest.mark.parametrize("text, message", [
    # a zone line the form has no zone for
    ("calculus lnl\nform A\nlctx x : J(A)\nterm ()\ntype 1\n",
     "lctx is not a zone of lnl/A judgements"),
    ("calculus rmm\npctx x : J(2)\nterm ()\ntype 1\n",
     "pctx is not a zone of rmm/A judgements"),
    ("calculus lnl\nform B\nterm ()\ntype 1\n",
     "judgement form 'B' does not exist in lnl"),
    # a context variable declared twice, in one zone or in two
    ("calculus rmm\nctx x : J(2), x : J(2)\nterm x\ntype J(2)\n",
     "duplicate context variable 'x'"),
    ("calculus lnl\nctx x : A\nlctx x : J(A)\nterm x\ntype J(A)\n",
     "duplicate context variable 'x'"),
])
def test_malformed_judgement_file_is_a_usage_error(tmp_path, capsys, text,
                                                   message):
    path = write(tmp_path, "bad.term", text)
    sig = golden_sig_path(text.split()[1])
    assert cli.main(["typecheck", "--sig", sig, path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (("comp idA eA = eA", "comp idA eA = idA"),
     "comp idA eA = idA: an identity law needs eA"),
    (("comp idA idA = idA\ncomp idA eA = eA\ncomp eA idA = eA\n"
      "comp eA eA = eA\n", ""), "no `comp idA idA` entry"),
    (("hom A A = [idA, eA]", "hom A A = [idA, eA]\nhom A B = [f]"),
     "hom A B: B is not an object"),
    (("id A = idA", ""), "id A: no identity in hom A A"),
    (("comp eA eA = eA", "comp eA eA = eA\ncomp eA x = eA"),
     "comp eA x = eA: eA after x is not a composable pair"),
])
@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_malformed_instance_table_is_a_usage_error(tmp_path, edit, message,
                                                    flags):
    """The category tables of a .inst file are checked by code that raises,
    so `python -O`, which drops asserts, reports them the same way."""
    text = Path(fixture_path("tiny.inst")).read_text()
    assert edit[0] in text
    path = write(tmp_path, "bad.inst", text.replace(*edit))
    r = subprocess.run([sys.executable, *flags, "-m", "relmeta.cli",
                        "lawcheck", path], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (3, f"error: {message}\n")


def test_stray_comp_entry_is_a_usage_error(tmp_path, capsys):
    """`comp` lists exactly the composable pairs: an entry for f after f,
    where f : A -> B, is rejected by name, not checked against laws that
    never read it."""
    path = write(tmp_path, "stray.inst", "\n".join([
        "objects A B", "hom A A = [idA]", "hom B B = [idB]", "hom A B = [f]",
        "id A = idA", "id B = idB", "comp idA idA = idA",
        "comp idB idB = idB", "comp f idA = f", "comp idB f = f",
        "comp f f = f", "aobj A", "tmap A = A", "eta A = idA",
        "ext A A idA = idA", ""]))
    assert cli.main(["lawcheck", "--laws", "all", path]) == 3
    assert capsys.readouterr().err == \
        "error: comp f f = f: f after f is not a composable pair\n"
    # without the stray entry the instance passes
    Path(path).write_text(Path(path).read_text().replace("comp f f = f\n",
                                                         ""))
    assert cli.main(["lawcheck", "--laws", "all", path]) == 0


@pytest.mark.parametrize("drop, cell", [("ext A A eA = eA", "ext A A eA"),
                                        ("eta A = idA", "eta A"),
                                        ("tmap A = A", "tmap A")])
def test_incomplete_instance_is_a_usage_error(tmp_path, drop, cell):
    text = Path(fixture_path("tiny.inst")).read_text()
    assert drop in text
    path = write(tmp_path, "partial.inst", text.replace(drop, ""))
    r = run_cli("lawcheck", path, "--laws", "relmonad")
    assert r.returncode == 3
    assert f"`{cell}`" in r.stderr
    assert "Traceback" not in r.stderr


def test_internal_error_has_its_own_exit_code(tmp_path):
    lhs = "".join(f"do x{i} <- coin in " for i in range(400)) + "ret ()"
    path = write(tmp_path, "deep.eq",
                 f"calculus rmm\nlhs {lhs}\nrhs ret ()\ntype T(1)\n")
    r = run_cli("eq", "--theory", fixture_path("coin.sig"), path)
    assert r.returncode in (0, 1, 2, 3, 4)
    assert "Traceback" not in r.stderr
    if r.returncode == 4:
        assert r.stderr.startswith("error: internal: ")
        assert len(r.stderr.splitlines()) == 1


def test_json_mode():
    r = run_cli("--json", "eq", "--theory", fixture_path("coin.sig"),
                fixture_path("stone3.eq"))
    payload = json.loads(r.stdout.strip().splitlines()[-1])
    assert payload["verdict"] == "PROVEN"


def test_output_determinism():
    args = ("eq", "--theory", fixture_path("coin.sig"),
            "--model", "dist=" + fixture_path("dist.mb"),
            fixture_path("stone2.eq"))
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.stdout == r2.stdout
    assert "seed=0" in r1.stdout.splitlines()[0]


def test_repl_session():
    script = "\n".join([
        ":help",
        ":type T(2)",
        ":check do x <- coin in ret not x",
        ":eval do x <- coin in ret not x",
        ":normalize do x <- coin in ret x",
        ":eq do x <- coin in ret not x = coin",
        ":quit",
    ]) + "\n"
    r = subprocess.run(
        RUN + ["repl", "--sig", fixture_path("coin.sig"),
               "--model", fixture_path("dist.mb")],
        input=script, capture_output=True, text=True)
    assert r.returncode == 0
    replies = r.stdout.split("relmeta> ")[1:]
    assert replies[0].startswith("commands: :sig <path> |")
    assert ":normalize <t> | :eq <t> = <t> | :quit\n" in replies[0]
    assert "accepted" in r.stdout
    assert "{ff:1/2^1, tt:1/2^1}" in r.stdout
    assert replies[4] == "coin\n", replies
    assert "PROVEN" in r.stdout


def test_repl_model_loaded_under_another_signature(tmp_path):
    """A binding loaded under a signature without a theory and then used
    under the coin theory is judged against the coin theory: exc's coin
    breaks ax1, so the search's proof of ax1 stands."""
    free = write(tmp_path, "free.sig", "calculus rmm\nobject 2\nobject 4\n"
                 "gen not : 2 -> 2\nrel not;not = id_2\n")
    mb = write(tmp_path, "exc.mb", EXC_MB)
    script = f":sig {free}\n:model {mb}\n:sig {fixture_path('coin.sig')}\n" \
        ":type T(1)\n:eq do x <- coin in ret () = ret ()\n"
    r = subprocess.run(RUN + ["repl", "--sig", fixture_path("coin.sig")],
                       input=script, capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.split("relmeta> ")[1:] == [
        "signature loaded\n", "model binding loaded\n", "signature loaded\n",
        "", "PROVEN\nax1 at root lr fwd\n", ""]


def test_repl_reports_bad_input_and_goes_on():
    """An unknown calculus and a zone the judgement form lacks are reported
    as errors, and the session goes on; an empty zone clears one."""
    script = ":calculus foo\n:type T(2)\n:lctx y : J(2)\n:check ret y\n" \
        ":lctx -\n:ctx y : J(2)\n:check ret y\n"
    r = subprocess.run(RUN + ["repl", "--sig", fixture_path("coin.sig")],
                       input=script, capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.split("relmeta> ")[1:] == [
        "error: unknown calculus 'foo'\n", "", "",
        "error: lctx is not a zone of rmm/A judgements\n", "", "",
        "accepted\n", ""]


def test_repl_eq_rejects_trailing_input():
    """`:eq` reads its two terms as parse_term does: input left after the
    right-hand term, or a former the calculus lacks, is an error."""
    script = ":type T(2)\n:eq coin = coin garbage\n:eq coin = coin\n" \
        ":eq coin = let J(a) = coin in coin\n"
    r = subprocess.run(RUN + ["repl", "--sig", fixture_path("coin.sig")],
                       input=script, capture_output=True, text=True)
    assert r.returncode == 0
    replies = r.stdout.split("relmeta> ")[1:]
    assert replies[1] == "error: 1:13: trailing input starting at " \
        "'garbage'\n", replies
    assert replies[2].startswith("PROVEN"), replies
    assert replies[3] == "error: term former 'letj' is not part of rmm\n", \
        replies


PROVE_GOLDEN = Path(__file__).parent / "golden" / "prove"


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("name, code", [("valley", 0), ("valley_bad", 1),
                                        ("valley_badpath", 1)])
def test_prove_golden(name, code, mode, monkeypatch, capsys):
    """`prove` on a rule valley that replays, on one that lacks a step and
    on one whose step is at a path that is not a position, byte for
    byte."""
    monkeypatch.chdir(PROVE_GOLDEN)
    args = ["--json"] if mode == "json" else []
    assert cli.main(args + ["prove", "--theory", fixture_path("coin.sig"),
                            "valley.eq", f"{name}.proof"]) == code
    assert capsys.readouterr().out.encode() == \
        (PROVE_GOLDEN / f"{name}.{mode}").read_bytes()


def _fixture(name):
    return Path(fixture_path(name)).read_text()


def _edit(text, old, new):
    """text with its line `old` replaced by `new` (appended when old is
    None), and the number of that line."""
    lines = text.splitlines()
    n = len(lines) if old is None else lines.index(old)
    lines[n:n + 1] = [new]
    return "\n".join(lines) + "\n", n + 1


def _malformed_inputs():
    """(kind, file contents, the line the error names or the text that
    names it), with the malformed line as the case's id."""
    def case(kind, text, where, bad):
        return pytest.param(kind, text, where, id=f"{kind}:{bad!r}")

    for old, new in [("hom A A = [idA, eA]", "hom A = [idA, eA]"),
                     ("comp idA idA = idA", "comp idA = idA"),
                     ("ext A A idA = idA", "ext A idA = idA"),
                     ("tmap A = A", "tmap A")]:
        yield case("inst", *_edit(_fixture("tiny.inst"), old, new), new)
    yield case("sig", *_edit(_fixture("coin.sig"), "calculus rmm",
                             "calculus"), "calculus")
    for new in ["wordcap x", "grading tensor a b", "grading builtin",
                "grading", "op coin T(2)", "gen not 2 2"]:
        yield case("sig", *_edit(_fixture("coin.sig"), None, new), new)
    for old, new in [("carrier 2 = {tt, ff}", "carrier 2"),
                     ("calculus rmm", "calculus foo")]:
        yield case("mb", *_edit(_fixture("dist.mb"), old, new), new)
    for text in ["ax1\n", "ax1 at x.y lr fwd\n",
                 "ax1 at root with {x := ret () lr fwd\n",
                 "# a comment line\ndo.assoc at root sideways\n"]:
        yield case("proof", text, text.count("\n"), text.split("\n")[-2])
    for kind, data in [("sig", b"\xff\xfe"), ("mb", b"\xff"),
                       ("proof", b"\xff")]:
        yield case(kind, data, 1, data)
    yield case("rmm", "calculus rmm\nctx x : J(2)\nctx y : J(2)\nterm y\n"
               "type J(2)\n", 3, "ctx y : J(2)")
    yield case("rmm", "calculus rmm\nterm ret ()\nterm ret x\ntype T(1)\n",
               3, "term ret x")
    yield case("rmm", "calculus rmm\ntermx ret ()\nterm ret ()\n"
               "type T(1)\n", 2, "termx ret ()")
    yield case("arrow", "calculus arrow\nform C\nctx f : B ~> C\n"
               "dctx b : B\nlctx c : C\nterm f . b\ntype C\n",
               "lctx is not a zone of arrow/C judgements", "lctx c : C")


def _cli_args(kind, path):
    """A command that reads the file at path as an input of this kind."""
    coin, stone1 = fixture_path("coin.sig"), fixture_path("stone1.eq")
    return {"inst": ["lawcheck", path],
            "sig": ["eq", "--theory", path, stone1],
            "mb": ["eq", "--theory", coin, "--model", f"m={path}", stone1],
            "proof": ["prove", "--theory", coin,
                      str(PROVE_GOLDEN / "valley.eq"), path],
            }.get(kind) or ["typecheck", "--sig", golden_sig_path(kind), path]


@pytest.mark.parametrize("kind, data, where", _malformed_inputs())
def test_malformed_line_is_a_usage_error_naming_it(tmp_path, capsys, kind,
                                                   data, where):
    """A line of the wrong shape, a repeated single key, an unknown key or
    a file that is not UTF-8 exits 3 with one error line that names the
    line."""
    path = tmp_path / f"bad.{kind}"
    if isinstance(data, str):
        data = data.encode()
    path.write_bytes(data)
    assert cli.main(_cli_args(kind, str(path))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    if isinstance(where, int):
        assert re.search(rf"\bline {where}\b", err), err
    else:
        assert where in err


PRESENTED_GRADING = ["grading object e", "grading unit e",
                     "grading tensor e e = e"]


def _repeated_entries():
    """(kind, file contents, the repeated entry, its first line, the line
    that repeats it): one table line of each kind written twice."""
    tiny = _fixture("tiny.inst")
    for line in ["hom A A = [idA, eA]", "id A = idA", "comp idA eA = eA",
                 "tmap A = A", "eta A = idA", "ext A A eA = eA"]:
        n = tiny.splitlines().index(line) + 1
        yield pytest.param("inst", tiny + line + "\n",
                           " ".join(line.split("=")[0].split()), n,
                           len(tiny.splitlines()) + 1, id=f"inst:{line}")
    dist = _fixture("dist.mb")
    for line in ["carrier 2 = {tt}", "interp not = {tt -> tt, ff -> ff}",
                 "opinterp coin = dist{tt:1/2, ff:1/2}"]:
        head = " ".join(line.split("=")[0].split())
        n = next(i for i, old in enumerate(dist.splitlines(), 1)
                 if old.startswith(head + " "))
        yield pytest.param("mb", dist + line + "\n", head, n,
                           len(dist.splitlines()) + 1, id=f"mb:{line}")
    coin = _fixture("coin.sig") + "\n".join(PRESENTED_GRADING) + "\n"
    n = len(coin.splitlines())
    for line, head, first in [("grading unit e", "grading unit", n - 1),
                              ("grading tensor e e = e",
                               "grading tensor e e", n)]:
        yield pytest.param("sig", coin + line + "\n", head, first, n + 1,
                           id=f"sig:{line}")


@pytest.mark.parametrize("kind, data, entry, first, again",
                         _repeated_entries())
def test_repeated_table_entry_is_a_usage_error(tmp_path, capsys, kind, data,
                                               entry, first, again):
    """A table entry given twice, with the same value or another, exits 3
    naming both lines; a file of each kind loads without the repeat."""
    path = tmp_path / f"bad.{kind}"
    path.write_text(data.rsplit("\n", 2)[0] + "\n")
    assert cli.main(_cli_args(kind, str(path))) == 0
    path.write_text(data)
    assert cli.main(_cli_args(kind, str(path))) == 3
    assert capsys.readouterr().err.endswith(
        f"error: line {again}: repeats the `{entry}` of line {first}\n")


@pytest.mark.parametrize("extra", [["objects A"], ["hom A A = [x]"],
                                   ["unitobj A", "objects A"]])
def test_builtin_instance_takes_no_table_lines(tmp_path, capsys, extra):
    """A `.inst` with a `builtin` line and a table or object line is a
    usage error naming the first such line."""
    path = write(tmp_path, "mixed.inst",
                 "\n".join(["builtin identity cmax=2", *extra]) + "\n")
    assert cli.main(["lawcheck", path]) == 3
    head = extra[0].split()[0]
    assert capsys.readouterr().err == \
        f"error: line 2: a `builtin` instance takes no `{head}` line\n"


def test_input_files_are_read_whatever_their_suffix(tmp_path, capsys):
    """Signature and binding files named *.txt load like .sig and .mb."""
    for name in ("coin.sig", "dist.mb"):
        write(tmp_path, name.replace(".", "_") + ".txt", _fixture(name))
    outs = []
    for sig, model in [(fixture_path("coin.sig"), fixture_path("dist.mb")),
                       (str(tmp_path / "coin_sig.txt"),
                        str(tmp_path / "dist_mb.txt"))]:
        for eq, code in [(fixture_path("stone1.eq"), 0),
                         (str(EQ_GOLDEN / "refuted_dist.eq"), 1)]:
            assert cli.main(["eq", "--theory", sig, "--model",
                             f"dist={model}", eq]) == code
            outs.append(capsys.readouterr().out)
    assert outs[:2] == outs[2:]


def test_eq_without_a_theory_uses_the_empty_signature(tmp_path, capsys):
    path = write(tmp_path, "t.eq",
                 "calculus rmm\nlhs ret ()\nrhs ret ()\ntype T(1)\n")
    assert cli.main(["eq", path]) == 0
    assert "PROVEN" in capsys.readouterr().out


# a fresh interpreter that runs cli.main on each argument list of argv[2]
# (JSON), numpy blocked when argv[1] is "blocked": prints, as JSON, each
# run's exit code and output, and the numpy modules then loaded
NUMPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from relmeta import cli
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "numpy" and mod is not None]
print(json.dumps([runs, loaded]))
"""


def test_ungraded_subcommands_run_without_numpy():
    """Only a graded law check imports numpy: with numpy blocked, the
    other subcommands give the same exit codes and output, and without the
    block none of them loads it."""
    term = str(Path(__file__).parent / "golden" / "typecheck" /
               "rmm_shadow.term")
    coin = fixture_path("coin.sig")
    argvs = [["typecheck", "--sig", coin, term],
             ["normalize", "--sig", coin, term],
             ["eq", "--theory", coin, "--model",
              "dist=" + fixture_path("dist.mb"), fixture_path("stone1.eq")],
             ["lawcheck", "--laws", "strong", fixture_path("exception.inst")]]
    got = {}
    for mode in ("blocked", "open"):
        r = subprocess.run([sys.executable, "-c", NUMPY_PROBE, mode,
                            json.dumps(argvs)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        got[mode] = json.loads(r.stdout)
    runs, loaded = got["open"]
    assert [code for code, _ in runs] == [0, 0, 0, 0]
    assert loaded == []
    assert got["blocked"] == got["open"]
