"""Command-line front end.  One verb per library operation.

No option decides a verdict.  Each one is exact or read off enclosures
with proved error radii (:mod:`ucc.entropy`), and is reported as
``"satisfied"``: true, false, or null when the enclosures cannot settle
it (undecided).  Exit codes: 0 no certified violation (every verdict
true, null or inapplicable); 1 a certified violation: a false verdict (the
family is dumped in .uc form) or a certificate refuting a threshold below
1/(2 phi); 2 usage or I/O error, or a size cap hit (the message names the
cap).  ``analytic grid`` and ``analytic minimize`` only sample, so they
never exit 1; certified refutations come from ``analytic certify``.
Reports go to stdout (JSON by default), certificates and CSV dumps to
--out when given.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _EXPORTS, _HOME, CapExceededError, report

if TYPE_CHECKING:
    from .setfamily import SetFamily

# The library names the handlers below call become module globals only
# when run_cli binds the homes (keys of ucc._EXPORTS) that the chosen verb's
# subparser lists, or when one is read as `ucc.cli.<name>`.  So `ucc check`
# never compiles the certifier, `ucc analytic certify` never loads
# setfamily, and a replacement set through `ucc.cli.<name>` beforehand is
# what the verb calls.


def _bind(home: str) -> None:
    """Bind the names ``ucc._EXPORTS`` lists for ``home`` as globals of this
    module, keeping any that is already bound (a caller's replacement wins)."""
    module = importlib.import_module(f"{__package__}.{home}")
    scope = globals()
    for name in _EXPORTS[home]:
        scope.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(home)
    return globals()[name]


EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "human", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report to this path")


def _kind(value: str) -> str:
    """The --kind type: a name in generators.RANDOM_KINDS, or "all"."""
    _bind("generators")
    kinds = RANDOM_KINDS + ("all",)
    if value not in kinds:
        choices = ", ".join(map(repr, kinds))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {choices})")
    return value


# what _family_report reads: the homes of every verb that checks a family
_FAMILY_HOMES = ("setfamily", "entropy", "analytic.scalars")


def _build_parser() -> argparse.ArgumentParser:
    """The ``ucc`` parser.  Each verb's subparser is the one place that
    declares it: its options, its handler (``run``) and the homes of the
    library names that handler reads (``homes``)."""
    ap = argparse.ArgumentParser(
        prog="ucc",
        description="Checks for union-closed set systems and the entropy bound behind them.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="closure fraction, frequencies, theorem report")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(run=_cmd_check, homes=_FAMILY_HOMES)

    p = sub.add_parser("entropy", help="union entropy, chain rule, both bounds")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(run=_cmd_entropy, homes=_FAMILY_HOMES)

    p = sub.add_parser("analytic", help="scalar landscape checks and certification")
    asub = p.add_subparsers(dest="action", required=True)

    q = asub.add_parser("minimize", help="locate the diagonal ratio minimum")
    q.add_argument("--grid", type=int, default=4096)
    _add_common(q)
    q.set_defaults(run=_cmd_minimize, homes=("analytic.scalars",))

    q = asub.add_parser("grid", help="sweep the product-form margin on a grid")
    q.add_argument("--grid", type=int, default=1001)
    _add_common(q)
    q.set_defaults(run=_cmd_grid, homes=("analytic.scalars",))

    q = asub.add_parser("certify", help="branch-and-bound lower bound for f")
    q.add_argument("--theta", type=float, default=0.809016)
    q.add_argument("--eta", type=float, default=1e-4)
    q.add_argument("--depth", type=int, default=60)
    q.add_argument("--budget", type=int, default=10_000_000)
    q.add_argument("--strip-points", type=int, default=10_000)
    _add_common(q)
    q.set_defaults(run=_cmd_certify, homes=("analytic.certify", "analytic.scalars"))

    p = sub.add_parser("example", help="exact slice example statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _add_common(p)
    p.set_defaults(run=_cmd_example, homes=("generators",))

    p = sub.add_parser("enumerate", help="exhaustive union-closed families, n <= 4")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exclude-empty", action="store_true",
                   help="skip families containing the empty set as a member")
    _add_common(p)
    p.set_defaults(run=_cmd_enumerate, homes=("generators", *_FAMILY_HOMES))

    p = sub.add_parser("fuzz", help="random families through the theorem checker")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--kind", type=_kind, default="all",
                   help="one kind of random family, or all of them (default)")
    p.add_argument("--rho", type=float, default=0.25)
    p.add_argument("--entropy-checks", action="store_true",
                   help="also run chain-rule and both entropy bounds per family")
    _add_common(p)
    p.set_defaults(run=_cmd_fuzz, homes=("generators", "rng", *_FAMILY_HOMES))
    return ap


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_family(family: SetFamily) -> None:
    sys.stderr.write("violating family in .uc format:\n")
    sys.stderr.write(format_family(family))


def _family_report(path: str):
    """Load a nonempty family and build the report fields check and entropy
    share; returns the family, its theorem report (None below size 2) and
    the report object."""
    family = load_family(path)
    if family.size == 0:
        raise ValueError("empty family; nothing to check")
    profile = element_frequencies(family)
    eps = 1 - closure_fraction(family)
    if family.size >= 2:
        rep = check_theorem(family)
        theorem, delta, bound = report.theorem_obj(rep), rep.delta, rep.psi_minus_delta
    else:
        rep, delta, bound = None, 0.0, PSI
        theorem = report.inapplicable_theorem_obj("family size < 2")
    obj = report.family_check_obj(family, profile, eps, eps == 0, theorem,
                                  delta, bound)
    return family, rep, obj


def _cmd_check(args) -> int:
    family, rep, obj = _family_report(args.file)
    obj["closure_fraction_unordered"] = report.frac_obj(
        closure_fraction_unordered(family))
    _emit(report.render(obj, args.format), args.out)
    if rep is not None and rep.satisfied is False:
        _dump_family(family)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_entropy(args) -> int:
    family, rep, obj = _family_report(args.file)
    dist = union_distribution(family)
    lower = check_lower_bound(family)
    upper = check_upper_bound(family)
    chain = chain_rule_check(family)
    obj.update(entropy_union_bits=shannon_entropy(dist),
               lower_bound=report.record_obj(lower),
               upper_bound=report.record_obj(upper),
               chain_rule=report.record_obj(chain))
    _emit(report.render(obj, args.format), args.out)
    if any(r is not None and r.satisfied is False for r in (rep, lower, upper, chain)):
        _dump_family(family)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_minimize(args) -> int:
    dm = minimize_diagonal(grid_points=args.grid)
    obj = report.record_obj(dm)
    obj["deviation_from_phi"] = abs(dm.x_star - PHI)
    obj["value_minus_min"] = dm.value - (PHI + 1.0)
    _emit(report.render(obj, args.format), args.out)
    return EXIT_OK


def _cmd_grid(args) -> int:
    if args.format == "csv" or (args.out and args.out.endswith(".csv")):
        _write_grid_csv(args.grid, args.out)
    else:
        gc = corollary_grid_check(grid_points=args.grid)
        obj = report.record_obj(gc)
        obj["phi"] = PHI
        _emit(report.render(obj, args.format), args.out)
    return EXIT_OK


def _write_grid_csv(grid_points: int, out_path: str | None) -> None:
    """Stream the margin sweep as CSV, one row block at a time."""
    if grid_points < 100:  # the floor corollary_grid_check puts on the JSON path
        raise ValueError("grid_points must be at least 100")
    grid, blocks = grid_margin_rows(grid_points)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            report.write_grid_csv(fh, grid, blocks)
    else:
        report.write_grid_csv(sys.stdout, grid, blocks)


def _cmd_certify(args) -> int:
    cert = certify_lower_bound(
        theta=args.theta, eta=args.eta, max_depth=args.depth,
        box_budget=args.budget, strip_points=args.strip_points)
    _emit(report.render(report.record_obj(cert), args.format), args.out)
    if cert.violation_boxes and args.theta < HALF_INV_PHI:
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_example(args) -> int:
    stats = slice_stats(ExampleSpec(n=args.n, k=args.k, m=args.m))
    obj = report.record_obj(stats)
    obj["closure_deficit"] = float(stats.closure_deficit)
    _emit(report.render({"example": obj}, args.format), args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    count = 0
    checked = 0
    skipped_small = 0
    undecided = 0
    min_max_freq: Fraction | None = None
    worst: SetFamily | None = None
    for fam in enumerate_union_closed(args.n, include_empty_set=not args.exclude_empty):
        count += 1
        if fam.size < 2:
            skipped_small += 1
            continue
        rep = check_theorem(fam)
        checked += 1
        if min_max_freq is None or rep.max_freq < min_max_freq:
            min_max_freq = rep.max_freq
        if rep.satisfied is False:
            worst = fam
            break
        undecided += rep.satisfied is None
    obj = {
        "n": args.n,
        "families": count,
        "theorem_checked": checked,
        "skipped_small": skipped_small,
        "undecided": undecided,
        "min_max_freq": report.record_obj(min_max_freq),
        "all_satisfied": worst is None,
        "psi": PSI,
    }
    _emit(report.render(obj, args.format), args.out)
    if worst is not None:
        _dump_family(worst)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    # split among the kinds, a count below 1 reaches no random_families call
    # to refuse it
    if args.count < 1:
        raise ValueError("size and count must be positive")
    kinds = RANDOM_KINDS if args.kind == "all" else (args.kind,)
    per = args.count // len(kinds)
    remainder = args.count - per * (len(kinds) - 1)
    checked = 0
    skipped_small = 0
    skipped_cap = 0
    applicable = 0
    undecided = 0
    max_eps = 0.0
    violation: SetFamily | None = None
    for pos, kind in enumerate(kinds):
        want = remainder if pos == len(kinds) - 1 else per
        if want <= 0:
            continue
        stream = random_families(args.n, args.size, want,
                                 derive_seed(args.seed, pos), kind, rho=args.rho)
        for fam in stream:
            if fam.size < 2:
                skipped_small += 1
                continue
            try:  # the first build of this family's pair-union histogram
                rep = check_theorem(fam)
            except CapExceededError:
                skipped_cap += 1
                continue
            checked += 1
            if rep.applicable:
                applicable += 1
            max_eps = max(max_eps, float(rep.epsilon))
            verdicts = [rep.satisfied]
            if rep.satisfied is not False and args.entropy_checks:
                verdicts += [check_lower_bound(fam).satisfied,
                             check_upper_bound(fam).satisfied,
                             chain_rule_check(fam).satisfied]
            if False in verdicts:
                violation = fam
                break
            undecided += None in verdicts
        if violation is not None:
            break
    obj = {
        "n": args.n,
        "count": args.count,
        "kinds": list(kinds),
        "size": args.size,
        "seed": args.seed,
        "rho": args.rho,
        "theorem_checked": checked,
        "theorem_applicable": applicable,
        "skipped_small": skipped_small,
        "skipped_pair_cap": skipped_cap,
        "undecided": undecided,
        "max_epsilon_seen": max_eps,
        "violation_found": violation is not None,
    }
    _emit(report.render(obj, args.format), args.out)
    if violation is not None:
        _dump_family(violation)
        return EXIT_VIOLATION
    return EXIT_OK


def run_cli(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    for home in args.homes:
        _bind(home)
    try:
        return args.run(args)
    except (ValueError, OSError, CapExceededError) as exc:
        sys.stderr.write(f"ucc: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
