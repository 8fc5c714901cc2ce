"""Command-line surface: parse and validate network/formula files, evaluate,
sample, run exact or Monte Carlo inference, eliminate aggregations, and run
the convergence and admissibility harnesses.

Reports are JSON; experiment tables are CSV.  Stochastic commands require an
explicit --seed.  The environment variable PLA_WORLD_CAP overrides the exact
enumeration cap, and PLA_TYPE_CAP the compiler's cap on the complete types
of one equality type.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import Optional

from . import aggregators
from . import network as net_mod
from .eliminate import convergence_experiment, eliminate as run_elimination
from .errors import PlaError
from .logic import (DEFAULT_TYPE_CAP, Variable, check_signature, evaluate, free_vars,
                    function_rank, has_aggregation)
from .network import (
    DEFAULT_WORLD_CAP,
    ValueSet,
    load_network,
    load_structure,
    mc_event_probability,
    sample,
    structure_to_doc,
    validate,
)
from .parser import format_formula, parse_formula


def _cap(variable: str, default: int) -> int:
    env = os.environ.get(variable)
    if not env:
        return default
    try:
        cap = int(env)
    except ValueError:
        raise PlaError("%s must be an integer, got %r" % (variable, env)) from None
    if cap < 1:  # no world or type fits under a cap below 1
        raise PlaError("%s must be >= 1, got %r" % (variable, env))
    return cap


def _read_formula(spec: str):
    """Accept a path to a formula file or inline formula text."""
    if os.path.exists(spec):
        with open(spec) as handle:
            return parse_formula(handle.read().strip())
    return parse_formula(spec)


def _parse_assignment(text: Optional[str]) -> dict:
    """Comma-separated ``var=element`` chunks, each naming a new variable."""
    if not text:
        return {}
    assignment = {}
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        var = Variable(name.strip())
        if not var.name:
            raise PlaError("bad assignment %r; no variable name" % chunk)
        if var in assignment:
            raise PlaError("bad assignment %r; %s is assigned twice" % (chunk, var.name))
        try:
            assignment[var] = int(value)
        except ValueError:
            raise PlaError("bad assignment %r; expected var=element" % chunk) from None
    return assignment


def _parse_ints(option: str, text: str) -> list[int]:
    """A comma-separated list of integers given to a command-line option."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise PlaError("%s must be comma-separated integers, got %r" % (option, text)) from None


def _check_at_least(least: int, *options: tuple[str, int]) -> None:
    """Each (option, value) pair's value is at least ``least``.  Checked
    here so that the error names the option: the library would raise
    without naming it, or quietly do nothing with a negative count."""
    for option, value in options:
        if value < least:
            raise PlaError("%s must be >= %d, got %d" % (option, least, value))


def _check_assignment(phi, assignment: dict, n: int) -> None:
    """Every assigned value is a domain element and every free variable of
    the formula has one."""
    for var, value in assignment.items():
        if not 1 <= value <= n:
            raise PlaError("%s=%d is outside the domain [1, %d]" % (var.name, value, n))
    missing = sorted(v.name for v in free_vars(phi) - set(assignment))
    if missing:
        raise PlaError("no value for free variable %s; assign one in the domain [1, %d] "
                       "with --assign" % (", ".join(missing), n))


def _emit(args, payload):
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> dict:
    network = load_network(args.net)
    strat = validate(network)
    payload = {
        "ranks": dict(strat.rank),
        "strata": strat.strata,
        "aggregation_free": strat.aggregation_free,
    }
    if args.formula:
        phi = _read_formula(args.formula)
        check_signature(phi, network.signature)
        payload["formula"] = {
            "text": format_formula(phi),
            "free_variables": sorted(v.name for v in free_vars(phi)),
            "function_rank": function_rank(phi),
            "aggregation_free": not has_aggregation(phi),
        }
    return payload


def cmd_eval(args) -> dict:
    structure = load_structure(args.structure)
    phi = _read_formula(args.formula)
    check_signature(phi, structure.signature)
    assignment = _parse_assignment(args.assign)
    _check_assignment(phi, assignment, structure.domain_size)
    value = evaluate(structure, phi, assignment)
    return {"value": value}


def cmd_sample(args) -> dict:
    _check_at_least(1, ("--n", args.n))
    network = load_network(args.net)
    world = sample(network, args.n, args.seed)
    return structure_to_doc(world)


def cmd_infer(args) -> dict:
    _check_at_least(1, ("--n", args.n))
    network = load_network(args.net)
    phi = _read_formula(args.formula)
    check_signature(phi, network.signature)
    assignment = _parse_assignment(args.assign)
    _check_assignment(phi, assignment, args.n)
    value_set = (ValueSet.full() if args.value_set is None
                 else ValueSet.parse(args.value_set, "--value-set"))
    if args.mode == "exact":
        prob = net_mod.exact_event_probability(
            network, args.n, phi, assignment, value_set,
            world_cap=_cap("PLA_WORLD_CAP", DEFAULT_WORLD_CAP),
        )
        return {"probability": prob, "n": args.n, "value_set": str(value_set)}
    _check_at_least(1, ("--samples", args.samples), ("--workers", args.workers))
    estimate, ci = mc_event_probability(
        network, args.n, phi, assignment, value_set,
        samples=args.samples, seed=args.seed, workers=args.workers,
    )
    return {
        "estimate": estimate,
        "ci95": ci,
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "value_set": str(value_set),
    }


def cmd_eliminate(args) -> dict:
    network = load_network(args.net)
    phi = _read_formula(args.formula)
    check_signature(phi, network.signature)
    _, report = run_elimination(network, phi, type_cap=_cap("PLA_TYPE_CAP", DEFAULT_TYPE_CAP))
    return report.to_dict(full_table=args.full_table)


def cmd_converge(args):
    network = load_network(args.net)
    phi = _read_formula(args.formula)
    check_signature(phi, network.signature)
    strat = validate(network)
    value_set = None if args.value_set is None else ValueSet.parse(args.value_set, "--value-set")
    _check_at_least(1, ("--samples", args.samples), ("--workers", args.workers))
    if not 0.0 <= args.epsilon < math.inf:  # false for NaN too; JSON has no inf
        raise PlaError("--epsilon must be finite and >= 0, got %r" % args.epsilon)
    n_grid = _parse_ints("--n-grid", args.n_grid)
    # a domain must hold the formula's parameters as distinct elements
    _check_at_least(max(1, len(free_vars(phi))), *(("--n-grid", n) for n in n_grid))
    psi = None
    if strat.aggregation_free:
        psi, _ = run_elimination(network, phi, type_cap=_cap("PLA_TYPE_CAP", DEFAULT_TYPE_CAP))
    elif value_set is None:
        raise PlaError(
            "network formulas contain aggregation functions, so no compiled "
            "formula exists; give --value-set to test value probabilities"
        )
    table = convergence_experiment(
        network, phi, psi,
        n_grid=n_grid, epsilon=args.epsilon, samples=args.samples,
        seed=args.seed, value_set=value_set, workers=args.workers,
    )
    if args.format == "json":
        return table.to_dict()
    return table.to_csv()


def cmd_admissible(args) -> dict:
    _check_at_least(0, ("--spectra", args.spectra), ("--trials", args.trials))
    if not 0.0 < args.threshold <= 1.0:  # no gap is below 0; JSON has no NaN
        raise PlaError("--threshold must be in (0, 1], got %r" % args.threshold)
    func = aggregators.DEFAULT_REGISTRY.get(args.function)
    rng = random.Random(args.seed)
    # probe the support boundary first (where e.g. noisy-or degenerates),
    # then random interior spectra
    zero = aggregators.SupportSpectrum.of((0.0, 1.0))
    spectra = [tuple(zero for _ in range(func.arity))]
    spectra += [
        tuple(aggregators.random_spectrum(rng) for _ in range(func.arity))
        for _ in range(args.spectra)
    ]
    lengths = _parse_ints("--lengths", args.lengths)
    _check_at_least(1, *(("--lengths", length) for length in lengths))
    report = aggregators.empirical_admissibility_check(
        func, spectra, lengths, args.trials, rng.getrandbits(64),
        threshold=args.threshold,
    )
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pla", description=__doc__)
    workers_help = ("processes that draw the samples, a speed setting only: the "
                    "output depends on --seed and --samples alone")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p = add("check", cmd_check, help="validate a network file, report strata")
    p.add_argument("--net", required=True)
    p.add_argument("--formula", help="formula file or inline text")

    p = add("eval", cmd_eval, help="evaluate a formula on a structure")
    p.add_argument("--structure", required=True, help="structure JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", help="assignment, e.g. x=1,y=2")

    p = add("sample", cmd_sample, help="sample one world")
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("infer", cmd_infer, help="probability that a formula value lands in a set")
    p.add_argument("mode", choices=("exact", "mc"))
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign")
    p.add_argument("--value-set", dest="value_set", help="e.g. '1' or '0:0.2,0.8:1'")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help=workers_help)

    p = add("eliminate", cmd_eliminate, help="compile away aggregation functions")
    p.add_argument("--net", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--full-table", dest="full_table", action="store_true",
                   help="list every extension type of each alpha table row, "
                        "not only the row's support spectra")

    p = add("converge", cmd_converge, help="convergence experiment over growing domains")
    p.add_argument("--net", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--n-grid", dest="n_grid", required=True, help="e.g. 50,100,200")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--value-set", dest="value_set")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("admissible", cmd_admissible, help="empirical admissibility check")
    p.add_argument("--function", required=True)
    p.add_argument("--lengths", default="100,1000,10000")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--spectra", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--seed", type=int, required=True)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "infer" and args.mode == "mc" and args.seed is None:
        print("error: infer mc requires --seed", file=sys.stderr)
        return 1
    try:
        payload = args.fn(args)
    except (PlaError, ValueError, OSError, KeyError, RecursionError) as exc:
        # RecursionError: the parser and the evaluator walk &/| chains in a
        # loop but recurse into other connectives, so thousands of nested !
        # or -> exhaust the stack
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
