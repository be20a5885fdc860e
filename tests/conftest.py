import importlib.resources
import random
from pathlib import Path

import pytest

from relmeta.models import load_binding
from relmeta.signatures import load_signature

GOLDEN = Path(__file__).parent / "golden"
# golden name prefix (its calculus, or its grading) -> signature file
CALCULUS_SIG = {"urmm": "coin.sig", "rmm": "coin.sig", "gmm": "gmm.sig",
                "lnl": "lnl.sig", "arrow": "arrow.sig", "armm": "arrow.sig",
                "presented": "presented.sig"}


def fixture_text(name: str) -> str:
    return importlib.resources.files("relmeta.fixtures").joinpath(name) \
        .read_text(encoding="utf-8")


def fixture_path(name: str) -> str:
    return str(importlib.resources.files("relmeta.fixtures").joinpath(name))


def golden_sig_path(name: str) -> str:
    """The signature of a golden judgement file, named by its calculus
    prefix: one beside the eval goldens, else a shipped fixture."""
    sig = CALCULUS_SIG[name.split("_", 1)[0]]
    local = GOLDEN / "eval" / sig
    return str(local) if local.exists() else fixture_path(sig)


def accepted_golden_judgements():
    """(name, judgement, signature) for each `typecheck` golden that is
    accepted: all six calculi and every binding rule."""
    from relmeta.cli import load_judgement
    from relmeta.typecheck import check
    out = []
    for term in sorted((GOLDEN / "typecheck").glob("*.term")):
        sig = load_signature(Path(golden_sig_path(term.stem)).read_text())
        j = load_judgement(term, sig)
        if check(j, sig).ok:
            out.append((term.stem, j, sig))
    return out


@pytest.fixture(scope="session")
def coin_sig():
    return load_signature(fixture_text("coin.sig"))


@pytest.fixture(scope="session")
def dist_binding(coin_sig):
    return load_binding(fixture_text("dist.mb"), coin_sig)


# the coin theory's operations with coin raising boom: not a model of the
# theory, since it breaks `do x <- coin in ret () = ret ()`
EXC_MB = """\
calculus rmm
backend exception(boom)
carrier 2 = {tt, ff}
carrier 4 = {p00, p01, p10, p11}
interp not = {tt -> ff, ff -> tt}
opinterp coin = exc(boom)
opinterp pair2 = {(tt,tt) -> p11, (tt,ff) -> p10, (ff,tt) -> p01, (ff,ff) -> p00}
opinterp and2 = {(tt,tt) -> tt, (tt,ff) -> ff, (ff,tt) -> ff, (ff,ff) -> ff}
"""


# the coin theory's distribution backend without pair2 and and2: a sweep
# that reaches either raises
BARE_DIST_MB = """\
calculus rmm
backend distribution
carrier 2 = {tt, ff}
carrier 4 = {p00, p01, p10, p11}
interp not = {tt -> ff, ff -> tt}
opinterp coin = dist{tt:1/2, ff:1/2}
"""


@pytest.fixture(scope="session")
def exc_binding(coin_sig):
    return load_binding(EXC_MB, coin_sig)


@pytest.fixture(scope="session")
def store_sig():
    return load_signature(fixture_text("store.sig"))


@pytest.fixture(scope="session")
def sweep_sig():
    # a small finite-set flavoured base with a few generators and relations,
    # used by the randomized soundness sweeps
    return load_signature(
        """
        calculus rmm
        object 1o
        object 2
        gen not : 2 -> 2
        gen id2 : 2 -> 2
        gen const_tt : 1o -> 2
        gen bang : 2 -> 1o
        rel not;not = id_2
        rel id2 = id_2
        rel bang;const_tt = id_1o
        op coin : () -> T(2)
        """)


@pytest.fixture(scope="session")
def sweep_dist(sweep_sig):
    return load_binding(
        """
        calculus rmm
        backend distribution
        carrier 1o = {star}
        carrier 2 = {tt, ff}
        interp not = {tt -> ff, ff -> tt}
        interp id2 = {tt -> tt, ff -> ff}
        interp const_tt = {star -> tt}
        interp bang = {tt -> star, ff -> star}
        opinterp coin = dist{tt:1/2, ff:1/2}
        """, sweep_sig)


@pytest.fixture(scope="session")
def sweep_exc(sweep_sig):
    return load_binding(
        """
        calculus rmm
        backend exception(boom)
        carrier 1o = {star}
        carrier 2 = {tt, ff}
        interp not = {tt -> ff, ff -> tt}
        interp id2 = {tt -> tt, ff -> ff}
        interp const_tt = {star -> tt}
        interp bang = {tt -> star, ff -> star}
        opinterp coin = exc(boom)
        """, sweep_sig)


@pytest.fixture(scope="session")
def gmm_sig():
    return load_signature(
        "calculus gmm\nobject A\nobject B\ngrading builtin mult\n"
        "op pick : () -> T_2(A)\n")


@pytest.fixture(scope="session")
def presented_sig():
    return load_signature(Path(golden_sig_path("presented")).read_text())


@pytest.fixture(scope="session")
def gmm_plain_sig():
    # operation-free variant: the graded translation has no clause for
    # effect operations (their result types have no target counterpart)
    return load_signature(
        "calculus gmm\nobject A\nobject B\ngrading builtin mult\n")


@pytest.fixture(scope="session")
def gmm_add_sig():
    return load_signature(
        "calculus gmm\nobject A\nobject B\ngrading builtin add\n")


@pytest.fixture(scope="session")
def glist_binding(gmm_sig):
    return load_binding(
        "calculus gmm\nbackend gradedlist\ncarrier A = {a1, a2}\n"
        "carrier B = {b1}\nopinterp pick = list[a1, a2]\n", gmm_sig)


@pytest.fixture(scope="session")
def lnl_sig():
    return load_signature("calculus lnl\nobject A\nobject B\n"
                          "grading builtin mult\n")


@pytest.fixture(scope="session")
def lnl_add_sig():
    return load_signature("calculus lnl\nobject A\nobject B\n"
                          "grading builtin add\n")


@pytest.fixture(scope="session")
def arrow_sig():
    return load_signature("calculus arrow\nobject B\nobject C\n")


@pytest.fixture(scope="session")
def karr_binding(arrow_sig):
    return load_binding(
        "calculus arrow\nbackend kleisli(exception(boom))\n"
        "carrier B = {b0, b1}\ncarrier C = {c0}\n", arrow_sig)


@pytest.fixture(scope="session")
def karmm_binding(arrow_sig):
    return load_binding(
        "calculus armm\nbackend kleisli(exception(boom))\n"
        "carrier B = {b0, b1}\ncarrier C = {c0}\n", arrow_sig)


@pytest.fixture()
def rng():
    return random.Random(20240811)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.LINES:
            terminalreporter.write_line(line)
