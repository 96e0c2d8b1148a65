"""Command line entry points.

Subcommands: derive-atable, verify, conjecture, simulate, census.  Every
output embeds the full run configuration; reruns with equal configuration
are byte-identical.  Exit codes: 0 success / all pass, 1 check failure,
2 configuration error, 3 resource or budget failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .graphs import GenerationBudgetError
from .matchcount import CapExceededError
from .rng import DEFAULT_SEED, Rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_ints(text: str) -> list[int]:
    """Accept '3', '3,4,5' and '0..3'; a reversed range such as '12..8'
    is an error, not an empty one."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(x) for x in part.split(".."))
            if lo > hi:
                raise ValueError(f"reversed range {part!r} in {text!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError(f"empty integer list: {text!r}")
    return out


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`.  argparse names
    the flag in the error, and `main` exits 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _config_line(command: str, args: argparse.Namespace, keys) -> str:
    parts = [f"matchdiff {__version__} command={command}"]
    parts += [f"{k.replace('_', '-')}={getattr(args, k)}" for k in sorted(keys)]
    return " ".join(parts)


def _cache_dir(args) -> str:
    return args.cache or os.environ.get("MATCHDIFF_CACHE", "./cache")


def _load_table(args, strict_girth: bool = False):
    """The table derived with --seed, else the one derived with
    `DEFAULT_SEED`.  Its values do not depend on the derivation seed, and
    `conjecture` also seeds its trials with --seed."""
    from .atable import import_atable
    from .derive import default_table_path

    root = _cache_dir(args)
    rs = tuple(_parse_ints(args.r))
    paths = [default_table_path(root, rs, seed, strict_girth)
             for seed in (args.seed, DEFAULT_SEED)]
    for path in paths:
        if os.path.exists(path):
            return import_atable(path)
    print(f"error: no derived table at {paths[0]}; "
          "run `matchdiff derive-atable` first", file=sys.stderr)
    return None


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def cmd_derive_atable(args) -> int:
    from .derive import build_default_table, default_table_path
    from .identities import R_POINT

    config = _config_line("derive-atable", args,
                          ("r", "seed", "strict_girth"))
    print(f"# {config}")
    root = _cache_dir(args)
    rs = tuple(_parse_ints(args.r))
    path = default_table_path(root, rs, args.seed, args.strict_girth)
    cached = os.path.exists(path)
    table = build_default_table(root, rs, args.seed, args.strict_girth,
                                log=lambda m: print(f"  {m}"))
    print(f"{'cache hit' if cached else 'derived'}: {path}")
    print(f"symbolic through h={table.sym_max()}; "
          f"pointwise through h={table.point_max(R_POINT)} at r={R_POINT}")
    if args.strict_girth:
        # qualification-policy invariance: strict values must equal the
        # default-policy table wherever both are derivable
        default_path = default_table_path(root, rs, args.seed, False)
        if os.path.exists(default_path):
            base = build_default_table(root, rs, args.seed, False)
            for h, e in table.entries.items():
                if e.sym is not None and base.entries[h].sym != e.sym:
                    print(f"POLICY MISMATCH at symbolic a_{h}")
                    return EXIT_CHECK_FAILED
                for (r, j), v in e.points.items():
                    if base.value(h, r, j) != v:
                        print(f"POLICY MISMATCH at a_{h}({r}, {j})")
                        return EXIT_CHECK_FAILED
            print("strict-policy values match the default table (invariance)")
    return EXIT_OK


def _report_csv(reports) -> str:
    lines = ["id,r,i,k,h,spec,pass,witness"]
    for rep in reports:
        p = rep.params
        wit = ""
        if rep.witness:
            key, val = next(iter(rep.witness.items()))
            wit = f"{key}: {val}".replace(",", ";")
        cells = [rep.id, p.get("r", ""), p.get("i", ""), p.get("k", ""),
                 p.get("h", ""), str(p.get("spec", "")).replace(",", ";"),
                 "PASS" if rep.passed else "FAIL", wit]
        lines.append(",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    from . import identities as idn

    config = _config_line("verify", args,
                          ("r", "seed", "strict_girth", "suite", "id",
                           "hmax"))
    if args.id is not None and args.id not in idn.VERIFY_CHECKS:
        print(f"error: unknown check id {args.id!r}; known ids: "
              + ", ".join(idn.VERIFY_CHECKS), file=sys.stderr)
        return EXIT_CONFIG
    flags, reports_of = (((), idn.core_suite) if args.id is None
                         else idn.VERIFY_CHECKS[args.id])
    ignored = [f"--{flag}" for flag in ("hmax", "k", "i")
               if getattr(args, flag) is not None and flag not in flags]
    if ignored:
        check = "the core suite" if args.id is None else f"--id {args.id}"
        print(f"error: {check} does not read {', '.join(ignored)}",
              file=sys.stderr)
        return EXIT_CONFIG
    table = _load_table(args, args.strict_girth)
    if table is None:
        return EXIT_CONFIG
    given = {"k": args.k and _parse_ints(args.k),
             "i": args.i and _parse_ints(args.i), "hmax": args.hmax}
    reports = reports_of(table, **{f: v for f, v in given.items() if v})
    print(f"# {config}")
    for rep in reports:
        print(rep.line())
    nfail = sum(not rep.passed for rep in reports)
    print(f"# {len(reports)} checks, {nfail} failures")
    _write_out(args, f"# {config}\n" + _report_csv(reports))
    return EXIT_OK if nfail == 0 else EXIT_CHECK_FAILED


def cmd_conjecture(args) -> int:
    from .atable import ConjectureSpec
    from .identities import (R_POINT, check_extended_expansion,
                             random_conjecture_spec)

    config = _config_line("conjecture", args,
                          ("r", "seed", "trials", "zmax", "hmax"))
    table = _load_table(args)
    if table is None:
        return EXIT_CONFIG
    point_max = min(table.point_max(R_POINT), args.hmax)
    if args.zmax > point_max:
        print(f"error: --zmax {args.zmax} exceeds the pointwise order "
              f"{point_max} (the table's order at r={R_POINT}, capped by "
              "--hmax)", file=sys.stderr)
        return EXIT_CONFIG
    print(f"# {config}")
    sym_max = min(table.sym_max(), args.hmax)
    reports = [check_extended_expansion(table, ConjectureSpec(()), sym_max)[0]]
    ref_values = None
    rng = Rng(args.seed)
    for trial in range(args.trials):
        spec = random_conjecture_spec(rng, z_max=args.zmax)
        use_sym = max(z for z, _ in spec.terms) <= sym_max
        if use_sym:
            rep, _ = check_extended_expansion(table, spec, sym_max)
        rep3, vals = check_extended_expansion(table, spec, point_max,
                                              at_r=R_POINT)
        rep3.params["trial"] = trial
        reports.append(rep3)
        if use_sym:
            reports.append(rep)
        if ref_values is None:
            ref_values = vals
        elif vals != ref_values:
            rep3.witness[("c-dependence", trial)] = (
                f"{vals} != {ref_values}")
    for rep in reports:
        print(rep.line())
    nfail = sum(not rep.passed for rep in reports)
    # the values of trial 0 are the reference the later trials compare to
    agreement = ("k=h+1 values bit-identical across constants"
                 if args.trials >= 2 else
                 "no k=h+1 values compared across constants (fewer than "
                 "two trials)")
    print(f"# {len(reports)} checks, {nfail} failures; {agreement}"
          if nfail == 0 else f"# {nfail} failures")
    _write_out(args, f"# {config}\n" + _report_csv(reports))
    return EXIT_OK if nfail == 0 else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    from .positivity import trend_report

    config = _config_line("simulate", args,
                          ("r", "n", "samples", "seed", "i", "k", "jobs"))
    rs = _parse_ints(args.r)
    if len(rs) != 1:
        print("error: simulate takes a single --r", file=sys.stderr)
        return EXIT_CONFIG
    ns = _parse_ints(args.n)
    iis = _parse_ints(args.i)
    ks = _parse_ints(args.k)
    pairs = [(i, k) for i in iis for k in ks]
    report = trend_report(rs[0], ns, args.samples, pairs, args.seed,
                          jobs=args.jobs)
    csv = report.csv(config)
    _write_out(args, csv)
    if not args.out:
        sys.stdout.write(csv)
    print(f"# {config}")
    ok = True
    for (i, k) in pairs:
        mono = report.monotone_violation(i, k)
        ok = ok and mono
        print(f"violation trend i={i} k={k}: "
              f"{'non-increasing (2 SE)' if mono else 'INCREASING'}")
    pos = report.monotone_positivity()
    print(f"positivity fraction trend: "
          f"{'non-decreasing (2 SE)' if pos else 'DECREASING'}")
    return EXIT_OK if ok and pos else EXIT_CHECK_FAILED


def cmd_census(args) -> int:
    from .positivity import trend_report

    config = _config_line("census", args,
                          ("r", "n", "samples", "seed", "smax", "jobs"))
    rs = _parse_ints(args.r)
    if len(rs) != 1:
        print("error: census takes a single --r", file=sys.stderr)
        return EXIT_CONFIG
    report = trend_report(rs[0], _parse_ints(args.n), args.samples, (),
                          args.seed, jobs=args.jobs, census_smax=args.smax)
    text = report.census_csv(config)
    _write_out(args, text)
    sys.stdout.write(text)
    drops = report.positivity_drops()
    for na, nb in drops:
        print(f"positivity fraction drops from n={na} to n={nb}")
    ok = not drops
    print("# positivity fraction trend: "
          + ("non-decreasing (2 SE)" if ok else "DECREASING"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matchdiff",
        description="exact matching-count identities and positivity "
                    "statistics for regular bipartite graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True, cache=True):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if cache:
            p.add_argument("--cache", default=None, help="cache directory "
                           "(default $MATCHDIFF_CACHE or ./cache)")
        if out:
            p.add_argument("--out", default=None,
                           help="machine-readable output path")

    p = sub.add_parser("derive-atable", help="derive and cache the coefficient table")
    common(p, out=False)
    p.add_argument("--r", default="3,4,5")
    p.add_argument("--strict-girth", action="store_true")
    p.set_defaults(func=cmd_derive_atable)

    p = sub.add_parser("verify", help="run exact identity checks")
    common(p)
    p.add_argument("--r", default="3,4,5")
    p.add_argument("--strict-girth", action="store_true")
    p.add_argument("--suite", default="core", choices=("core",))
    p.add_argument("--id", default=None)
    p.add_argument("--k", default=None)
    p.add_argument("--i", default=None)
    p.add_argument("--hmax", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="randomized extended-expansion test")
    common(p)
    p.add_argument("--r", default="3,4,5")
    p.add_argument("--trials", type=_int_at_least(0), default=100)
    p.add_argument("--zmax", type=_int_at_least(1), default=2)
    p.add_argument("--hmax", type=_int_at_least(1), default=3)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("simulate", help="Monte Carlo moment and trend estimation")
    common(p, cache=False)
    p.add_argument("--r", default="3")
    p.add_argument("--n", default="6,8,10,12")
    p.add_argument("--i", default="0..3")
    p.add_argument("--k", default="0..3")
    p.add_argument("--samples", type=_int_at_least(1), default=2000)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("census", help="graph positivity and cycle census")
    common(p, cache=False)
    p.add_argument("--r", default="3")
    p.add_argument("--n", default="6,8,10,12")
    p.add_argument("--samples", type=_int_at_least(1), default=2000)
    p.add_argument("--smax", type=_int_at_least(4), default=6)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_census)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GenerationBudgetError, CapExceededError) as exc:
        # CapExceededError is a ValueError, so it is caught first
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # ATableError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # a crash must not read as "check failed" (exit 1)
        import traceback
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
