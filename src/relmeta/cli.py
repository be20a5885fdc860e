"""Batch command-line frontend and REPL.

Exit codes: 0 accepted/Proven/pass, 1 rejected/Refuted/fail, 2 Unknown,
3 usage or I/O error, 4 internal error (one `error: internal:` line on
stderr, no traceback).  No subcommand draws random numbers, so reports
are byte-identical across runs; the report header prints `--seed`.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import equations, lawcheck, models, syntax, translate
from .signatures import Signature, SignatureError, load_signature
from .syntax import Judgement, SyntaxError_, parse_context, parse_term, parse_type
from .typecheck import check, serialize_derivation

EXIT_OK, EXIT_REJECT, EXIT_UNKNOWN, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3, 4


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# input files

def read_input(path) -> str:
    """The text of an input file, read as UTF-8 whatever its name (the one
    place that opens one); a file not read or decoded is a usage error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode("utf-8")
    except OSError as e:
        raise CliError(str(e))
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise CliError(f"{path}: line {line} is not UTF-8 ({e.reason})")


def _load_sig(path) -> Signature:
    return load_signature(read_input(path)) if path else Signature()


def _judgement_zones(calculus, form, given: dict) -> tuple:
    """The zones of a calculus/form judgement from {zone key: context}, the
    zones no key gives empty; a key the form has no zone for is a usage
    error."""
    kinds = syntax.FORMS.get((calculus, form))
    if kinds is None:
        raise CliError(f"judgement form {form!r} does not exist in {calculus}")
    # `ctx`, then `lctx` for a linear (C) second zone, else `dctx`; `pctx`
    keys = ("ctx", "lctx" if kinds[1:2] == "C" else "dctx", "pctx")
    keys = keys[:len(kinds)]
    for key in given:
        if key not in keys:
            raise CliError(f"{key} is not a zone of {calculus}/{form}"
                           f" judgements")
    return tuple(given.get(key, ()) for key in keys)


ZONE_NAMES = ("ctx", "lctx", "dctx", "pctx")
JUDGEMENT_KEYS = ("calculus", "form", *ZONE_NAMES, "term", "lhs", "rhs",
                  "type")


def load_judgement(path, sig: Signature, term_key="term") -> Judgement:
    kv = syntax.read_keys(read_input(path), JUDGEMENT_KEYS)
    calculus = syntax.calculus_of(kv)
    form = kv.get("form", (None, syntax.default_form(calculus)))[1]
    form = {"command": "C", "term": "A"}.get(form, form)
    zones = _judgement_zones(calculus, form, {
        key: syntax.on_line(*kv[key], parse_context, sig)
        for key in ZONE_NAMES if key in kv})
    if term_key not in kv or "type" not in kv:
        raise CliError(f"file {path} needs `{term_key}` and `type` lines")
    term = syntax.on_line(*kv[term_key], parse_term, calculus, sig)
    ty = syntax.on_line(*kv["type"], parse_type, sig)
    return Judgement(calculus, form, zones, term, ty)


def load_eq_file(path, sig: Signature):
    jl = load_judgement(path, sig, term_key="lhs")
    jr = load_judgement(path, sig, term_key="rhs")
    return jl, jr


# ---------------------------------------------------------------------------
# reporting helpers

def emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def header(args):
    if not args.json:
        print(f"# relmeta seed={args.seed}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_typecheck(args):
    sig = _load_sig(args.sig)
    j = load_judgement(args.file, sig)
    res = check(j, sig)
    header(args)
    if res.ok:
        emit(args, {"verdict": "accepted"},
             f"accepted: {j}\n" + serialize_derivation(res.derivation))
        return EXIT_OK
    emit(args, {"verdict": "rejected", "rule": res.rule,
                "path": list(res.path or ()), "message": res.message,
                "expected": res.expected, "actual": res.actual},
         f"rejected at rule {res.rule}, path {res.path}: {res.message}")
    return EXIT_REJECT


def cmd_normalize(args):
    sig = _load_sig(args.sig)
    j = load_judgement(args.file, sig)
    header(args)
    try:
        res = equations.normalize(j, sig, budget=args.step_budget)
    except equations.BudgetExceeded as e:
        emit(args, {"verdict": "budget-exceeded"}, str(e))
        return EXIT_UNKNOWN
    steps = "\n".join(s.render() for s in res.steps)
    emit(args, {"verdict": "normalized",
                "normal_form": syntax.term_to_text(res.term),
                "steps": [s.render() for s in res.steps]},
         f"normal form: {syntax.term_to_text(res.term)}\n{steps}")
    return EXIT_OK


def cmd_eval(args):
    sig = _load_sig(args.sig)
    if not args.model:
        raise CliError("eval needs --model")
    binding = _load_models(args, sig)[0][1]
    j = load_judgement(args.file, sig)
    header(args)
    if any(zone for zone in j.zones):
        raise CliError("eval runs closed judgements; use eq for open ones")
    val = models.eval_term(j, {}, binding, sig)
    emit(args, {"verdict": "value", "value": str(val)}, f"value: {val}")
    return EXIT_OK


def _load_models(args, sig):
    out = []
    for spec in args.model or []:
        name, _, path = spec.rpartition("=")
        if not name:
            name, path = path.rsplit("/", 1)[-1].rsplit(".", 1)[0], path
        out.append((name, models.load_binding(read_input(path), sig)))
    return out


def cmd_eq(args):
    sig = _load_sig(args.theory or args.sig)
    jl, jr = load_eq_file(args.file, sig)
    header(args)
    verdict = equations.check_eq(jl, jr, sig, _load_models(args, sig),
                                 depth=args.search_depth,
                                 budget=args.step_budget)
    payload = {"verdict": verdict.status}
    if verdict.status == "REFUTED":
        payload["model"] = verdict.model
        payload["witness"] = verdict.witness
    emit(args, payload, verdict.render())
    return {"PROVEN": EXIT_OK, "REFUTED": EXIT_REJECT,
            "UNKNOWN": EXIT_UNKNOWN}[verdict.status]


def cmd_prove(args):
    sig = _load_sig(args.theory or args.sig)
    jl, jr = load_eq_file(args.file, sig)
    proof = equations.parse_proof(read_input(args.proof), sig, jl.calculus)
    header(args)
    ok = equations.check_proof(proof, jl, jr, sig)
    emit(args, {"verdict": "checked" if ok else "step-mismatch"},
         "proof checked" if ok else "proof does not replay")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_translate(args):
    sig = _load_sig(args.sig)
    j = load_judgement(args.file, sig)
    header(args)
    tgt, trace = translate.translate(j, sig, args.src, args.tgt)
    emit(args, {"verdict": "translated",
                "target": syntax.term_to_text(tgt.term),
                "target_type": syntax.type_to_text(tgt.ty),
                "typing_preserved": trace.typing_preserved},
         trace.render())
    return EXIT_OK


LAW_SETS = (*lawcheck.LAW_SETS, "all")


# builtin instance -> its arguments and their defaults.  The finite-set
# sizes stay within lawcheck's object cap; with the builtin carriers, T_4 B
# already exceeds the graded sweep's cap.
BUILTIN_ARGS = {"exception-restriction": {"amax": "2", "cmax": "3"},
                "identity": {"cmax": "2"},
                "graded-list": {"grades": "1,2,3"}}
MAX_SIZE = lawcheck.MAX_OBJECTS - 1
MAX_GRADE = 3


def _naturals(key, text):
    """text read as comma-separated non-negative integers."""
    parts = text.split(",")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise CliError(f"{key}={text}: expected non-negative integers")
    return tuple(int(p) for p in parts)


# the table lines of an explicit instance -> the numbers of keys they take
INSTANCE_TABLES = {"hom": (2,), "comp": (2,), "id": (1,), "tensor": (2,),
                   "tensormor": (2,), "jmap": (1,), "tmap": (1,), "eta": (1,),
                   "ext": (3, 4)}


def load_instance(path):
    kv = syntax.read_keys(read_input(path),
                          ("builtin", "objects", "aobj", "unitobj"),
                          INSTANCE_TABLES)
    if "builtin" not in kv:
        return _explicit_instance(kv, path)
    # (line, key) of the first line that is not the `builtin` one
    other = min(((v[0][0] if k in INSTANCE_TABLES else v[0], k)
                 for k, v in kv.items() if k != "builtin"), default=None)
    if other is not None:
        raise SyntaxError_(f"a `builtin` instance takes no `{other[1]}` line",
                           other[0])
    name, *parts = kv["builtin"][1].split() or [""]
    if name not in BUILTIN_ARGS:
        raise CliError(f"unknown builtin instance {name!r}")
    args = dict(BUILTIN_ARGS[name])
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq or key not in args:
            raise CliError(f"builtin {name} takes "
                           f"{', '.join(k + '=' for k in args)}, not {part!r}")
        args[key] = val
    if name == "graded-list":
        grades = _naturals("grades", args["grades"])
        if len(set(grades)) < len(grades):
            raise CliError(f"grades={args['grades']}: duplicate grade")
        if max(grades) > MAX_GRADE:
            raise CliError(f"grades={args['grades']}: grades above "
                           f"{MAX_GRADE} exceed the graded sweep's cap")
        return lawcheck.bounded_list_instance(grades=grades)
    size = {k: _naturals(k, v) for k, v in args.items()}
    if any(len(v) > 1 or v[0] > MAX_SIZE for v in size.values()):
        raise CliError(f"builtin {name}: sizes are single integers up to"
                       f" {MAX_SIZE}")
    if name == "identity":
        if size["cmax"][0] < 1:  # the skeleton needs its unit object 1
            raise CliError("identity: cmax must be at least 1")
        return lawcheck.identity_monad_instance(size["cmax"][0])
    (amax,), (cmax,) = size["amax"], size["cmax"]
    if amax >= cmax:  # T A = A + 1 must be an object
        raise CliError("exception-restriction: amax must be below cmax")
    return lawcheck.exception_restriction_instance(amax, cmax)


def _explicit_instance(kv, path):
    tables = {key: syntax.split_entries(key, kv.get(key, ()), *arity)
              for key, arity in INSTANCE_TABLES.items()}
    objects = tuple(kv.get("objects", (None, ""))[1].split())
    homs, dom, cod = {}, {}, {}
    for ab, value in tables["hom"].items():
        ms = tuple(value.strip("[]").replace(",", " ").split())
        homs[ab] = ms
        for m in ms:
            dom[m], cod[m] = ab
    ids = {a: m for (a,), m in tables["id"].items()}
    cat = lawcheck.FinCategory(
        objects, homs, tables["comp"], ids, dom, cod,
        unit=kv.get("unitobj", (None, None))[1],
        obj_tensor=tables["tensor"], mor_tensor=tables["tensormor"])
    cat.validate()
    aobjs = tuple(kv.get("aobj", (None, " ".join(objects)))[1].split())
    jmap = {a: a for a in aobjs}
    jmap.update((a, x) for (a,), x in tables["jmap"].items())
    tmap = {a: x for (a,), x in tables["tmap"].items()}
    eta = {a: m for (a,), m in tables["eta"].items()}
    plain = {cell: g for cell, g in tables["ext"].items() if len(cell) == 3}
    strong = {cell: g for cell, g in tables["ext"].items() if len(cell) == 4}
    d = lawcheck.FinRelMonadData(path, cat, aobjs, jmap, tmap, eta,
                                 plain or None, strong or None)
    _require_cells(d, path)
    return d


def _require_cells(d, path):
    """Name the first unit or extension cell the laws read but the file
    does not give: a `tmap`/`eta` entry for each aobj and, with an `ext`
    table, a cell for each f in hom(J a, T b)."""
    for a in d.aobjs:
        for name in ("tmap", "eta"):
            if a not in getattr(d, name):
                raise CliError(f"{path}: no `{name} {a}` entry")
    if d.ext_plain is None:
        return
    for a in d.aobjs:
        for b in d.aobjs:
            for f in d.C.hom(d.jmap[a], d.tmap[b]):
                if (a, b, f) not in d.ext_plain:
                    raise CliError(f"{path}: no `ext {a} {b} {f}` cell")


def cmd_lawcheck(args):
    inst = load_instance(args.file)
    header(args)
    want = args.laws
    if isinstance(inst, lawcheck.GradedMonadData) and \
            want not in ("graded", "all"):
        raise CliError("a graded instance supports --laws graded")
    reports = [law_set.check(inst)
               for name, law_set in lawcheck.LAW_SETS.items()
               if want in (name, "all") and law_set.applies(inst)]
    if not reports:
        raise CliError(f"instance has no tables for --laws {want}")
    ok = all(r.ok for r in reports)
    text = "\n".join(r.render() for r in reports)
    emit(args, {"verdict": "pass" if ok else "fail",
                "laws": [{"law": l.law, "status": l.status,
                          "witness": None if l.witness is None
                          else [str(x) for x in l.witness]}
                         for r in reports for l in r.lines]},
         text)
    return EXIT_OK if ok else EXIT_REJECT


def cmd_repl(args):
    sig = _load_sig(args.sig)
    binding = None
    if args.model:
        binding = _load_models(args, sig)[0][1]
    calculus = args.calculus or "rmm"
    zones = {}
    expected = None
    print(f"# relmeta repl (calculus {calculus}; :help for commands)")
    while True:
        try:
            line = input("relmeta> ").strip()
        except EOFError:
            return EXIT_OK
        if not line:
            continue
        try:
            cmd, rest = syntax.split_head(line)
            if cmd in (":q", ":quit", "quit"):
                return EXIT_OK
            if cmd == ":help":
                print("commands: :sig <path> | :model <path> |"
                      " :calculus <tag> | :ctx/:lctx/:dctx/:pctx <decls> |"
                      " :type <ty> | :check <t> | :eval <t> |"
                      " :normalize <t> | :eq <t> = <t> | :quit")
            elif cmd == ":sig":
                sig = load_signature(read_input(rest))
                print("signature loaded")
            elif cmd == ":model":
                binding = models.load_binding(read_input(rest), sig)
                print("model binding loaded")
            elif cmd == ":calculus":
                if rest not in syntax.CALCULI:
                    raise CliError(f"unknown calculus {rest!r}")
                calculus = rest
            elif cmd.startswith(":") and cmd[1:] in ZONE_NAMES:
                zones[cmd[1:]] = parse_context(rest, sig)
            elif cmd == ":type":
                expected = parse_type(rest, sig)
            elif cmd in (":check", ":eval", ":normalize"):
                t = parse_term(rest, calculus, sig)
                j = _repl_judgement(calculus, zones, t, expected, sig)
                if cmd == ":check":
                    res = check(j, sig)
                    print("accepted" if res.ok else f"rejected: {res.message}")
                elif cmd == ":eval":
                    if binding is None:
                        print("load a model binding first (:model)")
                    else:
                        print(models.eval_term(j, {}, binding, sig))
                else:
                    res = equations.normalize(j, sig)
                    print(syntax.term_to_text(res.term))
            elif cmd == ":eq":
                p = syntax._P(rest, sig=sig, calculus=calculus)
                tl = p.term()
                p.expect("=")
                tr = p.term()
                p.end()
                for t in (tl, tr):
                    syntax.check_admissible(t, calculus)
                jl = _repl_judgement(calculus, zones, tl, expected, sig)
                jr = _repl_judgement(calculus, zones, tr, expected, sig)
                ms = [] if binding is None else [("repl", binding)]
                print(equations.check_eq(jl, jr, sig, ms).render())
            else:
                print(f"unrecognized input {line!r} (:help)")
        except (SyntaxError_, SignatureError, CliError, models.ModelError,
                equations.RewriteError) as e:
            print(f"error: {e}")


def _repl_judgement(calculus, zones, term, expected, sig):
    if expected is None:
        raise CliError("set an expected type first (:type)")
    form = syntax.default_form(calculus)
    given = {key: ctx for key, ctx in zones.items() if ctx}  # `:lctx -` clears
    return Judgement(calculus, form, _judgement_zones(calculus, form, given),
                     term, expected)


# ---------------------------------------------------------------------------

def make_parser():
    p = argparse.ArgumentParser(
        prog="relmeta",
        description="toolchain for the relative monadic metalanguage family")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-budget", type=int, default=10000)
    p.add_argument("--search-depth", type=int, default=6)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, with_model=False):
        sp.add_argument("--sig", help="signature file")
        if with_model:
            sp.add_argument("--model", action="append",
                            help="model binding file (name=path)")

    sp = sub.add_parser("typecheck")
    common(sp)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_typecheck)
    sp = sub.add_parser("normalize")
    common(sp)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_normalize)
    sp = sub.add_parser("eval")
    common(sp, with_model=True)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_eval)
    sp = sub.add_parser("eq")
    common(sp, with_model=True)
    sp.add_argument("--theory", help="signature/theory file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_eq)
    sp = sub.add_parser("prove")
    common(sp)
    sp.add_argument("--theory")
    sp.add_argument("file")
    sp.add_argument("proof")
    sp.set_defaults(fn=cmd_prove)
    sp = sub.add_parser("translate")
    common(sp)
    sp.add_argument("--from", dest="src", required=True,
                    choices=("gmm", "arrow"))
    sp.add_argument("--to", dest="tgt", required=True,
                    choices=("lnl-rmm", "lnl", "armm"))
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_translate)
    sp = sub.add_parser("lawcheck")
    sp.add_argument("file")
    sp.add_argument("--laws", default="all", choices=LAW_SETS)
    sp.set_defaults(fn=cmd_lawcheck)
    sp = sub.add_parser("repl")
    common(sp, with_model=True)
    sp.add_argument("--calculus", choices=syntax.CALCULI)
    sp.set_defaults(fn=cmd_repl)
    return p


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (CliError, SignatureError, SyntaxError_, models.ModelError,
            equations.RewriteError, translate.TranslateError,
            lawcheck.LawError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        msg = str(e).replace("\n", " ")
        print(f"error: internal: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
