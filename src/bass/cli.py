"""Command-line front end: run experiments, check moments, inspect partitions.

``run`` takes one flag per ``ExperimentConfig`` key, spelled with dashes
(``--policy`` for ``policies``), merged over ``--config``: a flag given on
the command line wins, even at the default's value. ``moments-check`` and
``optimize-eps`` take only the keys of one policy (``_POLICY_KEYS``).
``moments-check`` compares the closed form with Monte Carlo (``--samples``,
``--seed``) and, while 2^units * n^3 <= 2^32, with enumeration; otherwise it
says that enumeration was skipped. ``optimize-eps`` prints eps*, s*, the
certified lower bound and the evaluations, and the run report's budget line
when the policy cannot spend its budget. Every command labels a policy as a
run's report does (``bass@0.5``, ``uniform@B2``, ``full``). An error prints
``error: ...`` and exits 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines import dump_matchings
from .experiment import (
    _CONFIG_PARSERS,
    ExperimentConfig,
    _budget_note,
    _setup,
    _unresolved_policy,
    build_policy,
    load_config,
    run_experiment,
)
from .moments import closed_form_moments, enumerated_moments, monte_carlo_moments
from .partition import dump_partition, greedy_partition
from .topologies import make_topology

# The config keys that pick one policy; moments-check and optimize-eps take
# only these.
_POLICY_KEYS = ("topology", "policies", "budget", "budget_frac", "min_subset_prob")

_HELP = {
    "topology": "preset like two-stars(4,4) / ring(6) / er(10,0.3,7), or a file path",
    "policies": "comma list of bass|uniform|full|matcha",
    "budget": "target expected transmission slots per round",
    "budget_frac": "budget as a fraction of the subsets (or matchings)",
    "budget_sweep": "comma list of budget fractions, one curve each",
    "seeds": "comma list of run seeds",
    "epsilon": "mixing step size, or 'auto' to optimize it",
    "min_subset_prob": "probability floor of every bass or uniform subset",
}


def _config_type(key):
    def convert(raw):
        return _CONFIG_PARSERS[key][0](raw)

    convert.__name__ = key  # names the key in argparse's "invalid value" error
    return convert


def _add_config_flags(parser, keys):
    """One flag per config key. A flag left off the command line sets nothing,
    so the config file or the ExperimentConfig default applies."""
    for key in keys:
        flag = "--policy" if key == "policies" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=_config_type(key),
                            default=argparse.SUPPRESS, help=_HELP.get(key))


def _config(args) -> ExperimentConfig:
    """The config file, if given, with every command-line flag merged over it."""
    values = {key: value for key, value in vars(args).items() if key in _CONFIG_PARSERS}
    if getattr(args, "config", None) is not None:
        return load_config(args.config, values)
    return ExperimentConfig(**values)


def _single_policy(args):
    cfg = _config(args)
    topology, partition, specs = _setup(cfg)
    if len(specs) != 1:
        raise ValueError(
            f"give exactly one policy and budget, got {', '.join(s.label for s in specs)}"
        )
    return cfg, topology, partition, specs[0]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bass",
        description="Broadcast-based subgraph sampling for decentralized SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # allow_abbrev=False: a prefix such as --seed must not stand for --seeds.
    run = sub.add_parser("run", help="run a training experiment", allow_abbrev=False)
    run.add_argument("--config", default=None,
                     help="flat key = value config file; flags given here override it")
    _add_config_flags(run, _CONFIG_PARSERS)

    mom = sub.add_parser("moments-check", allow_abbrev=False,
                         help="closed-form moments vs Monte Carlo (and enumeration)")
    _add_config_flags(mom, _POLICY_KEYS)
    mom.add_argument("--samples", type=int, default=100_000)
    mom.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    part = sub.add_parser("partition-dump", help="print the collision-free subsets")
    part.add_argument("--topology", default="two-stars(4,4)")
    part.add_argument("--matchings", action="store_true",
                      help="dump the matching decomposition instead")

    opt = sub.add_parser("optimize-eps", allow_abbrev=False,
                         help="optimize the mixing step size")
    _add_config_flags(opt, _POLICY_KEYS)
    return parser


def _cmd_run(args) -> int:
    result = run_experiment(_config(args))
    for line in result.report:
        print(line)
    total = sum(len(files) for files in result.run_files.values())
    print(f"wrote {total} run file(s) and {result.summary_file}")
    return 0


def _cmd_moments_check(args) -> int:
    cfg, topology, partition, spec = _single_policy(args)
    # The moments do not depend on epsilon, so it is left unset.
    units = _unresolved_policy(spec, topology, partition, cfg).units(partition, topology)
    closed = closed_form_moments(topology, units)
    rng = np.random.default_rng(args.seed)
    mc = monte_carlo_moments(topology, units, args.samples, rng)
    # The policy's units are its q subsets or its r matchings.
    count = units.probs.size
    print(f"policy {spec.label} on {cfg.topology}: units={count}, "
          f"samples={args.samples}")
    print(f"max |closed - MC| E[L~]      : {np.abs(closed.e_laplacian - mc.e_laplacian).max():.3e}")
    print(f"max |closed - MC| E[L~^T L~] : {np.abs(closed.e_gram - mc.e_gram).max():.3e}")
    # Enumeration costs 2^units rounds of dense n x n products: about
    # 2^units * n^3.
    if 2**count * topology.n**3 > 2**32:
        print(f"enumeration skipped: 2^units * n^3 = 2^{count} * {topology.n}^3 exceeds 2^32")
    else:
        exact = enumerated_moments(topology, units)
        print(f"max |closed - enum| E[L~]      : {np.abs(closed.e_laplacian - exact.e_laplacian).max():.3e}")
        print(f"max |closed - enum| E[L~^T L~] : {np.abs(closed.e_gram - exact.e_gram).max():.3e}")
    return 0


def _cmd_partition_dump(args) -> int:
    topology = make_topology(args.topology)
    if args.matchings:
        sys.stdout.write(dump_matchings(topology.matching_decomposition))
    else:
        sys.stdout.write(dump_partition(greedy_partition(topology)))
    return 0


def _cmd_optimize_eps(args) -> int:
    cfg, topology, partition, spec = _single_policy(args)
    # optimize-eps takes no --epsilon, so the search always runs.
    policy, search = build_policy(spec, topology, partition, cfg)
    units = policy.units(partition, topology)
    print(f"policy {spec.label} on {cfg.topology}")
    budget_note = _budget_note(spec, units)
    if budget_note is not None:
        print(budget_note)
    print(f"eps_star = {search.epsilon:.8g}")
    print(f"s_star   = {search.value:.8g}  (largest eigenvalue of E[W^2] - J, to within tol)")
    print(f"s_lower  = {search.lower:.8g}  (certified lower bound on min s)")
    print(f"evaluations = {search.evaluations}  (dense factorizations: eigvalsh spectra "
          "and Cholesky certificates; a Lanczos first point is none)")
    if search.degenerate:
        print("warning: E[L~] = 0, no expected communication; eps set to 0")
    # Secondary diagnostic: contraction of the mean mixing matrix E[W] - J, which
    # is 0 on the ones vector and 1 - eps * lambda on E[L~]'s other eigenvectors.
    # It reads the closed-form E[L~], which matcha's objective only estimates.
    lam = np.linalg.eigvalsh(closed_form_moments(topology, units).e_laplacian)[1:]
    rho = float(np.abs(1.0 - search.epsilon * lam).max(initial=0.0))
    print(f"rho(E[W] - J) = {rho:.8g}  (mean-matrix contraction, reported only)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "moments-check": _cmd_moments_check,
        "partition-dump": _cmd_partition_dump,
        "optimize-eps": _cmd_optimize_eps,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
