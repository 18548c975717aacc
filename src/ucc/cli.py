"""Command-line front end.  One verb per library operation.

No option decides a verdict.  Each one is exact or read off enclosures
with proved error radii (:mod:`ucc.entropy`), and is reported as
``"satisfied"``: true, false, or null when the enclosures cannot settle
it (undecided).  Exit codes: 0 no certified violation (every verdict
true, null or inapplicable); 1 a certified violation: a false verdict (the
family is dumped in .uc form) or a refutation found by the walk of
``analytic certify``; 2 usage or I/O error, or a size cap hit (the message
names the cap).  ``analytic grid`` and ``analytic minimize`` only sample,
so they never exit 1; certified refutations come from ``analytic certify``.
Every verb writes one report, a line of JSON, to stdout, or the same
bytes to ``--out PATH`` when given, and every verb writes it through
``_emit``: given a violating family, ``_emit`` also dumps that family to
stderr and returns exit code 1.  ``analytic certify`` sets its exit code
itself.  A report holds only numbers the run computed; the package
constants (``PSI``, ``PHI``) are not repeated in it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING

from . import _HOME, CapExceededError, report

if TYPE_CHECKING:
    from .setfamily import SetFamily

# The handlers below read every library name as an attribute of this module
# (``_lib.check_theorem``).  The first read of a name in ``ucc._HOME`` goes
# through __getattr__, which resolves it through the package and keeps it as
# a global.  So a verb loads only the modules it names: `ucc check` never
# compiles the certifier, `ucc analytic certify` never loads setfamily.  A
# replacement set as `ucc.cli.<name>` beforehand is what the verb calls.
_lib = sys.modules[__name__]


def __getattr__(name: str):
    # table names only: passing dunders on would copy ucc.__path__ here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    """The ``ucc`` parser.  Each verb's subparser is the one place that
    declares it: its options and its handler (``run``).  ``--out``, which
    every verb takes, is declared once, on ``common``."""
    ap = argparse.ArgumentParser(
        prog="ucc",
        description="Checks for union-closed set systems and the entropy bound behind them.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report to this path")
    sub = ap.add_subparsers(dest="command", required=True)
    verb = functools.partial(sub.add_parser, parents=[common])

    p = verb("check", help="closure deficit, frequencies, theorem report")
    p.add_argument("file")
    p.set_defaults(run=_cmd_check)

    p = verb("entropy", help="union entropy, chain rule, both bounds")
    p.add_argument("file")
    p.set_defaults(run=_cmd_entropy)

    p = sub.add_parser("analytic", help="scalar landscape checks and certification")
    action = functools.partial(p.add_subparsers(dest="action", required=True).add_parser,
                               parents=[common])

    q = action("minimize", help="locate the diagonal ratio minimum")
    q.set_defaults(run=_cmd_minimize)

    q = action("grid", help="sweep the product-form margin on a grid")
    q.add_argument("--grid", type=int, default=1001)
    q.set_defaults(run=_cmd_grid)

    q = action("certify", help="branch-and-bound lower bound for f")
    q.add_argument("--theta", type=float, default=0.809016)
    q.add_argument("--eta", type=float, default=1e-4)
    q.add_argument("--budget", type=int, default=10_000_000)
    q.set_defaults(run=_cmd_certify)

    p = verb("example", help="exact slice example statistics")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_example)

    p = verb("enumerate", help="exhaustive union-closed families, n <= 5")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_enumerate)

    p = verb("fuzz", help="random families through the theorem checker")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--kind", default="all",
                   help="one kind of random family, or all of them (default)")
    p.add_argument("--entropy-checks", action="store_true",
                   help="also run both entropy bounds per family")
    p.set_defaults(run=_cmd_fuzz)
    return ap


def _emit(args, obj: dict, violation: SetFamily | None = None) -> int:
    """Write the report to --out or stdout and return the exit code:
    EXIT_VIOLATION after dumping a violating family to stderr in .uc form,
    else EXIT_OK."""
    text = report.render(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if violation is None:
        return EXIT_OK
    sys.stderr.write("violating family in .uc format:\n")
    sys.stderr.write(_lib.format_family(violation))
    return EXIT_VIOLATION


def _family_report(path: str):
    """Load a family and build the report fields check and entropy share;
    returns the family, its theorem verdict (:func:`ucc.check_theorem`
    decides every family size) and the report object."""
    family = _lib.load_family(path)
    rep = _lib.check_theorem(family)
    eps = family.closure_deficit
    prof = _lib.element_frequencies(family)
    obj = {
        "family_size": family.size,
        "universe": family.universe_size,
        "union_closed": eps == 0,
        "epsilon": report.record_obj(eps),
        "delta": rep.delta,
        "max_freq": report.record_obj(prof.max_freq),
        "max_freq_element": prof.argmax + 1,
        "theorem": {"applicable": rep.applicable, "satisfied": rep.satisfied},
    }
    return family, rep.satisfied, obj


def _cmd_check(args) -> int:
    family, verdict, obj = _family_report(args.file)
    obj["closure_fraction_unordered"] = report.record_obj(
        _lib.closure_fraction_unordered(family))
    return _emit(args, obj, family if verdict is False else None)


def _cmd_entropy(args) -> int:
    family, verdict, obj = _family_report(args.file)
    dist = _lib.union_distribution(family)
    lower = _lib.check_lower_bound(family)
    upper = _lib.check_upper_bound(family)
    chain = _lib.chain_rule_check(family)
    obj.update(entropy_union_bits=dist.entropy_bits,
               lower_bound=report.record_obj(lower),
               upper_bound=report.record_obj(upper),
               chain_rule=report.record_obj(chain))
    verdicts = (verdict, lower.satisfied, upper.satisfied, chain.satisfied)
    return _emit(args, obj, family if False in verdicts else None)


def _cmd_minimize(args) -> int:
    return _emit(args, report.record_obj(_lib.minimize_diagonal()))


def _cmd_grid(args) -> int:
    return _emit(args, report.record_obj(
        _lib.corollary_grid_check(grid_points=args.grid)))


def _cmd_certify(args) -> int:
    cert = _lib.certify_lower_bound(
        theta=args.theta, eta=args.eta, box_budget=args.budget)
    _emit(args, report.record_obj(cert))
    # the point (phi, phi) refutes with no box; a box the walk refutes lies
    # below a theta under the minimum, against the lemma itself
    return EXIT_VIOLATION if cert.violation_boxes and cert.boxes_processed else EXIT_OK


def _cmd_example(args) -> int:
    stats = _lib.slice_stats(_lib.ExampleSpec(args.n))
    obj = report.record_obj(stats)
    obj["max_freq_exact"] = float(stats.max_freq_exact)
    obj["closure_deficit"] = float(stats.closure_deficit)
    return _emit(args, {"example": obj})


def _check_families(families, entropy_checks: bool = False):
    """The loop enumerate and fuzz share.  Families of fewer than two sets
    are skipped, and so is one over the pair-union histogram's cap; the rest
    go through the theorem check and, with ``entropy_checks``, the paper's
    two entropy bounds, up to the first certified violation.  Returns the
    tallies by report key and the violating family (None if there is none)."""
    seen = checked = applicable = skipped_small = skipped_cap = undecided = 0
    max_eps = 0.0
    min_max_freq = violation = None
    for fam in families:
        seen += 1
        if fam.size < 2:
            skipped_small += 1
            continue
        try:  # the first build of this family's pair-union histogram
            rep = _lib.check_theorem(fam)
        except CapExceededError:
            skipped_cap += 1
            continue
        checked += 1
        applicable += rep.applicable
        max_eps = max(max_eps, float(fam.closure_deficit))
        max_freq = fam.frequency_profile.max_freq
        if min_max_freq is None or max_freq < min_max_freq:
            min_max_freq = max_freq
        verdicts = [rep.satisfied]
        if rep.satisfied is not False and entropy_checks:
            verdicts += [_lib.check_lower_bound(fam).satisfied,
                         _lib.check_upper_bound(fam).satisfied]
        if False in verdicts:
            violation = fam
            break
        undecided += None in verdicts
    return {
        "families": seen,
        "theorem_checked": checked,
        "theorem_applicable": applicable,
        "skipped_small": skipped_small,
        "skipped_pair_cap": skipped_cap,
        "undecided": undecided,
        "max_epsilon_seen": max_eps,
        "min_max_freq": report.record_obj(min_max_freq),
    }, violation


def _cmd_enumerate(args) -> int:
    tally, violation = _check_families(_lib.enumerate_union_closed(args.n))
    obj = {
        "n": args.n,
        **{key: tally[key] for key in ("families", "theorem_checked",
                                       "skipped_small", "undecided", "min_max_freq")},
        "all_satisfied": violation is None,
    }
    return _emit(args, obj, violation)


def _cmd_fuzz(args) -> int:
    # one --kind draws as the first kind of a split does: derive_seed(seed, 0)
    seed = args.seed if args.kind == "all" else _lib.derive_seed(args.seed, 0)
    tally, violation = _check_families(
        _lib.random_families(args.n, args.size, args.count, seed, args.kind),
        args.entropy_checks)
    obj = {
        "n": args.n,
        "count": args.count,
        "kind": args.kind,
        "size": args.size,
        "seed": args.seed,
        **{key: tally[key] for key in ("theorem_checked", "theorem_applicable",
                                       "skipped_small", "skipped_pair_cap",
                                       "undecided", "max_epsilon_seen")},
        "violation_found": violation is not None,
    }
    return _emit(args, obj, violation)


def run_cli(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, OSError, CapExceededError) as exc:
        sys.stderr.write(f"ucc: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
