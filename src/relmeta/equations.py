"""Equational reasoning: normalization, proof checking, and a three-valued
equality decision procedure.

checkEq is sound but deliberately incomplete: Proven means the oriented
rewrite system plus a bounded bidirectional axiom search joined the two
sides; Refuted means a registered finite model separates them under some
environment (with a replayable witness); otherwise the verdict is Unknown
and carries both normal forms.  The models are swept before the search,
and a separating binding that is a model of the signature's theory
refutes without one (`check_eq`; what a sweep evaluates: `_sweep_binding`).

Subject reduction is re-checked after every rewrite, never assumed.  A
judgement entering the engine is checked in full, and its
`typecheck.Checked` carries the derivation, whose nodes hold what the
checker found and what it was given at each position.  A rule step, an
axiom move or a search-only move replaces one subterm, and
`typecheck.check_at` checks that subterm alone under the inputs its node
holds, splicing the result into the derivation.  Where that cannot be
shown to equal a full check (the subterm's free names or dangling bound
variables changed, its type is not the node's, or it fails to check) the
whole term is checked again, which also words any failure.  The checks of
one engine call are kept by term, so none is repeated, and the call's
shared judgement shape is validated once; a `typecheck.Checked` under the
call's signature object enters with its own check.  `check_proof` replays
with full checks only, so it stays an independent check of what the
engine found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import models as models_mod, syntax
from .rules import INDEX, RuleCtx, instantiate, match
from .signatures import Axiom, Signature, SignatureError
from .syntax import Judgement, Term, alpha_eq, replace_at, term_to_text
from .typecheck import (Checked, check, check_at, forget, is_checked,
                        renamed)


class RewriteError(Exception):
    pass


class BudgetExceeded(RewriteError):
    pass


class SubjectReductionError(RewriteError):
    pass


@dataclass(frozen=True)
class Step:
    name: str
    path: tuple
    orientation: str = "fwd"      # position in a valley proof
    kind: str = "rule"            # "rule" | "axiom"
    axdir: str = "lr"             # for axioms: which side rewrites to which
    sigma: tuple = ()             # for axioms: sorted (var, term) bindings

    def render(self) -> str:
        loc = ".".join(str(i) for i in self.path) if self.path else "root"
        out = f"{self.name} at {loc}"
        if self.kind == "axiom" and self.sigma:
            binds = ", ".join(f"{x} := {term_to_text(t)}"
                              for x, t in self.sigma)
            out += " with {" + binds + "}"
        if self.kind == "axiom":
            out += f" {self.axdir}"
        return out + f" {self.orientation}"


@dataclass
class EqProof:
    steps: tuple[Step, ...]

    def render(self) -> str:
        return "\n".join(s.render() for s in self.steps)


@dataclass
class EqVerdict:
    status: str  # PROVEN | REFUTED | UNKNOWN
    proof: EqProof | None = None
    model: str | None = None
    witness: dict | None = None
    lhs_nf: Term | None = None
    rhs_nf: Term | None = None

    def render(self) -> str:
        if self.status == "PROVEN":
            return "PROVEN\n" + self.proof.render()
        if self.status == "REFUTED":
            env = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
            return f"REFUTED model={self.model} witness=[{env}]"
        return (f"UNKNOWN\n  lhs normal form: {term_to_text(self.lhs_nf)}\n"
                f"  rhs normal form: {term_to_text(self.rhs_nf)}")


@dataclass
class NormalizeResult:
    term: Term
    steps: list[Step] = field(default_factory=list)


# ---------------------------------------------------------------------------
# checked judgements, redex enumeration and single steps

class _Checks:
    """The typechecks of one engine call: each term's Checked, or the
    failure message.  Every judgement one call visits has the same shape
    (check_eq's two sides share it), so a term is checked once however
    often the call reaches it, and the shape's zones and type are validated
    once.  A rewrite step's result is checked locally where `check_at` can
    show that gives a full check's derivation, and in full otherwise."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.results = {}   # term -> its Checked, or the failure message
        self.shape = None   # the judgement shape a check here accepted

    def __call__(self, j: Judgement):
        """j's Checked, or the failure message: kept, or j itself if it is
        a Checked under this call's signature, or from a full check."""
        out = self.results.get(j.term)
        if out is None:
            shape = (j.calculus, j.form, j.zones, j.ty)
            out = j if is_checked(j, self.sig) else \
                check(j, self.sig, validated=shape == self.shape)
            if out.ok:
                self.shape = shape
            else:
                out = out.message
            self.results[j.term] = out
        return _result_for(out, j.term)

    def at(self, c: Checked, path: tuple, new: Term):
        """What __call__ gives for c's judgement with `new` at `path`."""
        term = replace_at(c.term, path, new)
        out = self.results.get(term)
        if out is not None:
            return _result_for(out, term)
        out = check_at(c, path, term)
        if out is None:
            return self(c.with_term(term))
        self.results[term] = out
        return out


def _result_for(out, term: Term):
    """A kept result for `term`: the failure message, or a Checked of term
    itself (the kept one's may print its binders by other names)."""
    return out if type(out) is str or out.term is term else renamed(out, term)


def _enter(j, checks: _Checks) -> Checked:
    """Check a judgement as it enters the engine, through the call's
    checks; raises if ill-typed."""
    out = checks(j)
    if type(out) is str:
        raise RewriteError(f"term does not type-check: {out}")
    return out


def _positions(c: Checked):
    """(path, subterm, derivation node) of each position of c's term, in
    preorder (`syntax.positions`)."""
    stack = [((), c.term, c.derivation)]
    while stack:
        path, t, node = stack.pop()
        yield path, t, node
        for i in range(len(t.subs) - 1, -1, -1):
            stack.append((path + (i,), t.subs[i], node.children[i]))


def redexes(c: Checked, sig: Signature, search_only=False):
    """The (rule, path, new subterm) triples on a checked judgement,
    lazily, leftmost-outermost and then in rule registration order: of the
    normalizing rules, or with search_only of the search-only ones alone.
    At each position only the rules `rules.INDEX` gives for its kinds are
    tried.  A node whose subtree held none is marked clean for the rule set
    and skipped after, until a step below it rebuilds it unmarked."""
    calculus = c.calculus
    if (calculus, search_only) not in INDEX.trees:
        return
    bit = (2 if search_only else 1) if sig is c.sig else 0
    fired, stack = 0, [((), c.term, c.derivation)]
    while stack:
        path, sub, node = stack.pop()
        if path is None or node.clean & bit:  # leaving node, or a clean one
            node.clean |= bit if path is None and sub == fired else 0
            continue
        stack.append((None, fired, node))
        cands = INDEX.candidates(calculus, search_only, sub, node.ty)
        if cands:
            ctx = RuleCtx(sig, calculus, node)
            for r, rewrite in cands:
                new = rewrite(sub, ctx)
                if new is not None and new != sub:
                    fired += 1
                    yield r, path, new
        for i in range(len(sub.subs) - 1, -1, -1):
            stack.append((path + (i,), sub.subs[i], node.children[i]))


def _subterm(t: Term, path: tuple) -> Term:
    """The subterm of t at path; raises if path is not a position of t."""
    for i in path:
        if i >= len(t.subs):
            raise RewriteError(f"no subterm at {path}")
        t = t.subs[i]
    return t


def apply_rule_at(c: Checked, sig: Signature, rule_name: str,
                  path: tuple) -> Term:
    """Replay a single named rule at a position; raises if it does not fire."""
    sub, node = _subterm(c.term, path), c.derivation
    for i in path:
        node = node.children[i]
    r = INDEX.by_name.get(rule_name)
    if r is not None:
        ctx = RuleCtx(sig, c.calculus, node)
        for cand, rewrite in INDEX.candidates(c.calculus, r.search_only,
                                              sub, ctx.ty):
            if cand is r and (new := rewrite(sub, ctx)) is not None:
                return replace_at(c.term, path, new)
    raise RewriteError(f"rule {rule_name} does not apply at {path}")


def normalize(j, sig: Signature, *, budget: int = 10000, rng=None,
              checks: _Checks | None = None) -> NormalizeResult:
    """Rewrite to a fixed point of the oriented rule set.

    Deterministic (the first redex: leftmost-outermost, then rule
    registration order) unless an rng is supplied, in which case each step
    picks a uniformly random redex (used by the confluence smoke tests).
    Subject reduction is enforced, not assumed: the input is checked once
    (unless it is a `typecheck.Checked` under sig, or one of an engine
    call's `checks`, given with them) and every step's result is checked,
    and that check's derivation drives the next step, so n steps make at
    most n+1 checks (fewer when the call has already checked a term on the
    way).  A step's check covers the rewritten subterm alone where
    `typecheck.check_at` can show that this gives what a full check would,
    and the whole term otherwise; a step that breaks typing always ends in
    a full check, which words the error.
    """
    if checks is None:
        checks = _Checks(sig)
        j = _enter(j, checks)
    steps: list[Step] = []
    for _ in range(budget):
        if rng is None:
            rd = next(redexes(j, sig), None)
        else:
            rds = list(redexes(j, sig))
            rd = rds[rng.randrange(len(rds))] if rds else None
        if rd is None:
            return NormalizeResult(j.term, steps)
        r, path, new = rd
        nxt = checks.at(j, path, new)
        if type(nxt) is str:
            raise SubjectReductionError(
                f"rule {r.name} at {path} broke typing: {nxt}\n"
                f"  before: {term_to_text(j.term)}\n"
                f"  after:  {term_to_text(replace_at(j.term, path, new))}")
        j = nxt
        steps.append(Step(r.name, path))
    raise BudgetExceeded(f"rewriting exceeded the step budget {budget}")


# ---------------------------------------------------------------------------
# axiom application

def axiom_moves(j: Checked, sig: Signature, axioms, *, checks: _Checks):
    """All single axiom rewrites (either direction, any position) that keep
    the judgement well-typed, each as (step, its Checked result), by axiom,
    direction and position.  j is one of an engine call's `checks`, given
    with them."""
    if not axioms:
        return []
    everywhere = [(path, sub) for path, sub, _ in _positions(j)]
    at_kind = {}
    for path, sub in everywhere:
        at_kind.setdefault(sub.kind, []).append((path, sub))
    out = []
    for ax in axioms:
        axvars = {x for x, _ in ax.zones[0]}
        for axdir, (src, tgt) in (("lr", (ax.lhs, ax.rhs)),
                                  ("rl", (ax.rhs, ax.lhs))):
            # a side matches only where its head's kind is, unless it is
            # one of the axiom's variables
            for path, sub in (everywhere if src.kind == "var" and
                              src.name in axvars else
                              at_kind.get(src.kind, ())):
                sigma = match(src, sub, axvars, {})
                # a var only on the other side cannot be guessed
                if sigma is None or axvars - set(sigma):
                    continue
                nxt = checks.at(j, path, instantiate(tgt, sigma))
                if type(nxt) is not str:
                    out.append((Step(ax.name, path, kind="axiom",
                                     axdir=axdir,
                                     sigma=tuple(sorted(sigma.items()))),
                                nxt))
    return out


def apply_axiom_at(j: Judgement, sig: Signature, ax: Axiom, path: tuple,
                   axdir: str, sigma: dict | None = None) -> Term:
    src, tgt = (ax.lhs, ax.rhs) if axdir == "lr" else (ax.rhs, ax.lhs)
    sub = _subterm(j.term, path)
    if sigma is None:
        sigma = match(src, sub, {x for x, _ in ax.zones[0]}, {})
        if sigma is None:
            raise RewriteError(f"axiom {ax.name} does not match at {path}")
    elif not alpha_eq(instantiate(src, sigma), sub):
        raise RewriteError(
            f"axiom {ax.name} with the given substitution does not match"
            f" at {path}")
    return replace_at(j.term, path, instantiate(tgt, sigma))


# ---------------------------------------------------------------------------
# the three-valued decision procedure

BREADTH = 400  # terms the axiom search keeps on each side


def check_eq(jl: Judgement, jr: Judgement, sig: Signature, models=(), *,
             depth: int = 6, budget: int = 10000) -> EqVerdict:
    """Proven / Refuted / Unknown for a pair of judgements of one shape.

    models is a list of (name, ModelBinding) used for refutation.  Both
    sides, the axiom search and the sweeps share one set of checks, so no
    term is checked twice in one call, nor a `typecheck.Checked` side
    under sig at all.  The call releases the checks its sides carry
    (`typecheck.forget`): a Checked side keeps its root's judgement, with
    no signature, so that kept judgements keep no derivations and a later
    layer checks them again.

    When the normal forms differ, the models are swept in order before the
    axiom search, stopping at the first that separates the sides or
    raises.  If that first separating binding is a model of sig's theory
    (`_models_theory`) and the pair is of the theory's calculus, the pair
    is REFUTED without a search: an equation derivable from the theory
    holds in every model of it, so no search can join the sides.
    Otherwise the search runs, and a proof gives PROVEN; failing that, the
    sweep's refutation is returned, or its ModelError raised, or the
    verdict is UNKNOWN.  So the verdict is the one a search followed by the
    sweep would give.  How a binding is swept: `_sweep_binding`.
    """
    if (jl.calculus, jl.form, jl.zones, jl.ty) != \
            (jr.calculus, jr.form, jr.zones, jr.ty):
        raise RewriteError("the two sides are not judgements of one shape")
    try:
        return _decide(jl, jr, sig, models, depth, budget)
    finally:
        forget(jl)
        forget(jr)


def _decide(jl, jr, sig, models, depth, budget):
    checks = _Checks(sig)
    cl = _enter(jl, checks)
    if is_checked(jr, sig):  # free now, and jl's normalization may reach it
        checks(jr)
    nl = normalize(cl, sig, budget=budget, checks=checks)
    cr = _enter(jr, checks)
    nr = normalize(cr, sig, budget=budget, checks=checks)
    if alpha_eq(nl.term, nr.term):
        return EqVerdict("PROVEN",
                         proof=EqProof(tuple(nl.steps + _backward(nr.steps))))
    refuted = error = None
    theory = sig.theory
    try:
        for name, binding in models:
            env = _sweep_binding(checks, (jl, nl), (jr, nr), binding)
            if env is not None:
                refuted = EqVerdict("REFUTED", model=name, witness={
                    x: str(v) for x, v in env.items()})
                if (theory is None or theory.calculus == jl.calculus) \
                        and _models_theory(binding, sig):
                    return refuted
                break
    except models_mod.ModelError as e:
        error = e
    axioms = theory.axioms if theory else []
    mid = _bisearch(checks, cl, nl, cr, nr, axioms, depth, budget)
    if mid is not None:
        return EqVerdict("PROVEN", proof=EqProof(tuple(mid)))
    if error is not None:
        raise error
    return refuted or EqVerdict("UNKNOWN", lhs_nf=nl.term, rhs_nf=nr.term)


def _sweep_binding(checks: _Checks, left, right, binding):
    """The first environment, in `semantic_eq`'s order, in which binding
    separates the sides left and right, each (judgement, NormalizeResult)
    and swept as the call's Checked (a normal form's from its step's
    check), or None.  Where a side took a step and
    binding respects the relations (so the rules hold in it: `gen.word`
    reads them), the normal forms are swept over the originals'
    environments, and a separating one is confirmed on the originals; else,
    or if they do not differ there, or that sweep raises, the originals."""
    sig = checks.sig
    jl, jr = checks(left[0]), checks(right[0])

    def sweep(c1, c2, envs=None):
        return models_mod._sweep(c1, c2, envs or models_mod.env_space(
            jl, binding, sig, models_mod._grid_exp_for(jl, jr)), binding, sig)
    if (left[1].steps or right[1].steps) and _respects_relations(binding, sig):
        try:
            env = sweep(*(checks(j.with_term(n.term))
                          for j, n in (left, right)))
            if env is None or sweep(jl, jr, (env,)) is not None:
                return env
        except models_mod.ModelError:
            pass
    return sweep(jl, jr)


def _once(memo: list, sig: Signature, decide) -> bool:
    """decide(), kept in memo, a binding's list of (signature, answer),
    comparing sig by identity: a binding may be used with a signature
    other than the one it was loaded with."""
    for known, ok in memo:
        if known is sig:
            return ok
    ok = decide()
    memo.append((sig, ok))
    return ok


def _respects_relations(binding, sig: Signature) -> bool:
    """Whether binding interprets sig's generators totally and respects
    its relations (`models.validate_binding`); decided once per (binding,
    sig)."""
    def decide():
        try:
            models_mod.validate_binding(binding, sig)
        except (models_mod.ModelError, SignatureError):
            return False
        return True
    return _once(binding.relations_memo, sig, decide)


def _models_theory(binding, sig: Signature) -> bool:
    """Whether binding is a model of sig: it respects sig's relations, and
    both sides of every axiom of sig's theory are equal under it in every
    environment (vacuously for no theory).  A check that raises counts as
    not a model.  Decided once per (binding, sig)."""
    theory = sig.theory

    def decide():
        try:
            return _respects_relations(binding, sig) and all(
                models_mod.semantic_eq(
                    *(Judgement(theory.calculus, ax.form, ax.zones, t, ax.ty)
                      for t in (ax.lhs, ax.rhs)), binding, sig)[0]
                for ax in (theory.axioms if theory else ()))
        except (models_mod.ModelError, SignatureError):
            return False
    return _once(binding.theory_memo, sig, decide)


def _backward(steps):
    """A step sequence read from its far end, as the right half of a valley."""
    return [Step(s.name, s.path, "bwd", s.kind, s.axdir, s.sigma)
            for s in reversed(steps)]


def _expand(c, checks: _Checks, axioms, budget):
    """One search layer: (move, NormalizeResult) for each axiom or
    search-only rule move, followed by renormalization, through the engine
    call's checks."""
    sig = checks.sig
    out = [(step, normalize(nxt, sig, budget=budget, checks=checks))
           for step, nxt in axiom_moves(c, sig, axioms, checks=checks)]
    # search-only rules participate in both orientations
    for r, path, new in redexes(c, sig, search_only=True):
        nxt = checks.at(c, path, new)
        if type(nxt) is str:
            raise RewriteError(f"term does not type-check: {nxt}")
        out.append((Step(r.name, path),
                    normalize(nxt, sig, budget=budget, checks=checks)))
    return out


def _bisearch(checks: _Checks, cl, nl, cr, nr, axioms, depth, budget):
    if not axioms and (cl.calculus, True) not in INDEX.trees:
        return None
    # seed with the originals too: an axiom redex may only exist before
    # normalization reshapes the term
    left = {nl.term: list(nl.steps), cl.term: []}
    right = {nr.term: _backward(nr.steps), cr.term: []}
    lfront, rfront = dict(left), dict(right)
    for _ in range(depth):
        if not lfront and not rfront:
            break
        expand_left = (len(lfront) <= len(rfront) and lfront) or not rfront
        src, seen, other = ((lfront, left, right) if expand_left
                            else (rfront, right, left))
        nxt_front = {}
        for term, steps in list(src.items()):
            c = _enter(cl.with_term(term), checks)
            for step, norm in _expand(c, checks, axioms, budget):
                nt, new_steps = norm.term, [step] + norm.steps
                if nt in seen:
                    continue
                acc = (steps + new_steps if expand_left
                       else _backward(new_steps) + steps)
                seen[nt] = acc
                nxt_front[nt] = acc
                # before the breadth cut, so the term added at it meets too
                if nt in other:
                    return acc + other[nt] if expand_left else other[nt] + acc
                if len(seen) > BREADTH:
                    break
            if len(seen) > BREADTH:
                break
        if expand_left:
            lfront = nxt_front
        else:
            rfront = nxt_front
    return None


# ---------------------------------------------------------------------------
# proof checking

def check_proof(proof: EqProof, jl: Judgement, jr: Judgement,
                sig: Signature) -> bool:
    """Replay a valley proof: forward steps from the left endpoint, backward
    steps from the right endpoint, cursors must meet alpha-equal.  Both
    endpoints and every intermediate term must type-check; each step's
    check supplies the derivation the next rule step reads.
    """
    steps = proof.steps
    k = 0
    while k < len(steps) and steps[k].orientation == "fwd":
        k += 1
    if any(s.orientation != "bwd" for s in steps[k:]):
        return False  # not a valley: a fwd step after a bwd step
    axioms = {ax.name: ax for ax in (sig.theory.axioms if sig.theory else [])}

    def replay(j, side):
        checks = _Checks(sig)
        c = _enter(j, checks)
        for step in side:
            if step.kind != "axiom":
                new_term = apply_rule_at(c, sig, step.name, step.path)
            elif step.name not in axioms:
                raise RewriteError(f"unknown axiom {step.name}")
            else:
                new_term = apply_axiom_at(
                    c, sig, axioms[step.name], step.path, step.axdir,
                    dict(step.sigma) if step.sigma else None)
            c = _enter(c.with_term(new_term), checks)
        return c.term

    try:
        return alpha_eq(replay(jl, steps[:k]), replay(jr, reversed(steps[k:])))
    except RewriteError:
        return False


def parse_proof(text: str, sig: Signature, calculus: str) -> EqProof:
    """Parse the line-oriented proof format:
    `<name> at <path> [with {x := <term>, ...}] [lr|rl] <fwd|bwd>`."""
    steps = []
    for n, name, rest in syntax.read_lines(text):
        steps.append(syntax.on_line(n, rest, _parse_step, name, sig,
                                    calculus))
    return EqProof(tuple(steps))


def _parse_step(text, name, sig, calculus) -> Step:
    p = syntax._P(text, sig=sig, calculus=calculus)
    p.expect("at")
    loc = [p.next()]
    while p.peek() == ".":
        p.next()
        loc.append(p.next())
    if loc != ["root"] and not all(tok and tok.isdigit() for tok in loc):
        p.err(f"expected `root` or a path of indices, found "
              f"{'.'.join(map(str, loc))!r}")
    path = () if loc == ["root"] else tuple(map(int, loc))
    sigma = {}
    if p.peek() == "with":
        p.next()
        p.expect("{")
        while True:
            x = p.name()
            if x in sigma:
                p.err(f"{x} is bound twice")
            p.expect(":")
            p.expect("=")
            sigma[x] = p.term()
            syntax.check_admissible(sigma[x], calculus)
            if p.peek() != ",":
                break
            p.next()
        p.expect("}")
    kind, axdir = "rule", "lr"
    if p.peek() in ("lr", "rl"):
        kind, axdir = "axiom", p.next()
    orient = p.peek()
    if orient not in ("fwd", "bwd"):
        p.err(f"expected 'fwd' or 'bwd', found {orient!r}")
    p.next()
    if p.peek() is not None:
        p.err(f"trailing input starting at {p.peek()!r}")
    return Step(name, path, orientation=orient, kind=kind, axdir=axdir,
                sigma=tuple(sorted(sigma.items())))
