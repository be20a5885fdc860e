"""Helpers shared by the workload modules."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass


@dataclass
class Item:
    """One unit of work in a workload's corpus.

    kind names the stratum the item was drawn for (the corpus counts
    report it); payload is what the workload's run function takes; expect
    is the known answer its validate function checks.
    """

    kind: str
    payload: tuple
    expect: str = ""


def fixture_text(name: str) -> str:
    return importlib.resources.files("relmeta.fixtures").joinpath(name) \
        .read_text(encoding="utf-8")


def proof_replays(equations, verdict, jl, jr, sig) -> str | None:
    """PROVEN must come with a valley proof that check_proof accepts."""
    if verdict.status == "PROVEN" and \
            not equations.check_proof(verdict.proof, jl, jr, sig):
        return "PROVEN proof does not replay"
    return None


def witness_replays(models, verdict, jl, jr, binding, sig) -> str | None:
    """REFUTED must name an environment under which the two sides evaluate
    to different values.  The witness is printed (str of each value), so
    the environment is found again by enumerating the model's sweep."""
    if verdict.status != "REFUTED":
        return None
    grid = models._grid_exp_for(jl, jr)   # the grid semantic_eq sweeps
    for env in models.env_space(jl, binding, sig, grid):
        if {k: str(v) for k, v in env.items()} == verdict.witness:
            if models.eval_term(jl, env, binding, sig) != \
                    models.eval_term(jr, env, binding, sig):
                return None
            return "REFUTED witness evaluates both sides equal"
    return "REFUTED witness is not an environment of the sweep"


def verdict_record(verdict) -> str:
    """Status plus certificate of one check_eq verdict, for the digest."""
    if verdict.status == "PROVEN":
        return "PROVEN " + " ; ".join(s.render() for s in verdict.proof.steps)
    if verdict.status == "REFUTED":
        env = ", ".join(f"{k}={v}" for k, v in sorted(verdict.witness.items()))
        return f"REFUTED {verdict.model} [{env}]"
    return "UNKNOWN"
