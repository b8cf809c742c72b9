#!/usr/bin/env python3
"""Reproduce the reference tables end to end and print them as markdown.

Each table is the output of `twosquares table --id N --format md`: `# k=v`
meta lines, then the markdown table, then the seconds it took.  The exit
status is the CLI's: 0 success, 2 argument error, 3 accuracy/resource error;
the script stops at the first table that fails.

By default the actual cells of a long run (table 1 and the 10^11 and 10^12
rows of table 2) are served from recorded reference values (labeled
"reference" in the output); pass --allow-long-run to recompute them.  Table 2
then counts without a sieve in about 10 s on one core; only table 1 still
sieves to 10^12, which takes hours.
--allow-long-run, --threads and --cache-dir reach only the tables that take
them (twosquares.tables.TABLE_OPTIONS).

Examples:
    python3 scripts/reproduce_tables.py              # tables 2..7 at default scale
    python3 scripts/reproduce_tables.py --tables 2 5
    python3 scripts/reproduce_tables.py --tables 6 7 --allow-long-run
"""

from __future__ import annotations

import argparse
import sys
import time

from twosquares import cli, tables


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tables", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7],
                    help="table ids to reproduce (1..7; 1 sieves to 10^12)")
    ap.add_argument("--allow-long-run", action="store_true")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args(argv)

    for tid in args.tables:
        takes = tables.TABLE_OPTIONS.get(tid, ())
        opts = ["--format", "md"]
        if "threads" in takes:
            opts += ["--threads", str(args.threads)]
        if args.allow_long_run and "allow_long_run" in takes:
            opts.append("--allow-long-run")
        if args.cache_dir and "cache_dir" in takes:
            opts += ["--cache-dir", args.cache_dir]
        print(f"\n## Table {tid}\n", flush=True)
        t0 = time.perf_counter()
        code = cli.run(["table", "--id", str(tid), *opts])
        if code:
            return code
        print(f"\n({time.perf_counter() - t0:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
