"""Command-line batch runner.

Every subcommand runs one or more named checks and emits one JSON object per
check, either to stdout or to ``--out``.  Exit status: 0 when every check
passes, 1 when any check fails or errors, 2 on usage errors.

Each check has one definition, in ``qspread.suites``: the ``nc``, ``qis``,
``inv`` and ``wg`` subcommands run suite sections, their flags merged into
the config as overrides.  ``qis relations --n N`` is the ``relations``
section and ``qis extend --n N`` the ``extension`` section, each with
``classical_n_max = N``.  One angle of the two-projection family is
``qperm magic --rep extended:theta=...``, whose extension checks the
increasing relations first.

The configuration file is a single JSON document; missing keys fall back to
documented defaults (see ``qspread config``).  The environment variable
``QSPREAD_CONFIG`` supplies a default path.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .partitions import MobiusCache
from .qis import (
    quantum_extension,
    rep_from_json,
    two_projection_rep,
)
from .qperm import check_magic_unitary, permutation_rep, two_point_rep
from .linalg import projection_pair
from .reports import CheckReport
from .suites import (
    merge_config,
    mobius_checks,
    nc_count_checks,
    run_all,
    run_section,
)

CONFIG_ENV_VAR = "QSPREAD_CONFIG"
# Size budget of a representation file: n = 16 and dim = 16, every entry
# written out, take 2.7 MiB, decoded and checked in 0.8 s (2-vCPU host).
REP_FILE_BYTES_MAX = 4 * 2**20


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    overrides = {}
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    return merge_config(overrides)


def parse_rep_spec(spec: str, tolerance: float | None):
    """Build a representation from 'permutation:2,1', 'projection:theta=0.8',
    'extended:theta=0.8', or a JSON file path of at most REP_FILE_BYTES_MAX
    bytes (a larger file raises ValueError before it is decoded)."""
    if spec.startswith("permutation:"):
        values = tuple(int(v) for v in spec.split(":", 1)[1].split(","))
        return permutation_rep(values)
    if spec.startswith(("projection", "extended")):
        theta = 0.8
        if ":" in spec:
            body = spec.split(":", 1)[1]
            for part in body.split(","):
                key, _, value = part.partition("=")
                if key == "theta":
                    theta = float(value)
        if spec.startswith("projection"):
            return two_point_rep(projection_pair(theta)[1])
        return quantum_extension(two_projection_rep(theta))
    with open(spec, "rb") as handle:
        data = handle.read(REP_FILE_BYTES_MAX + 1)
    if len(data) > REP_FILE_BYTES_MAX:
        raise ValueError(f"representation file {spec} exceeds the size budget of "
                         f"{REP_FILE_BYTES_MAX} bytes")
    return rep_from_json(data.decode("utf-8"))


def emit(reports: list[CheckReport], out_path: str | None) -> int:
    lines = [report.to_json() for report in reports]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def cmd_nc(args, config) -> list[CheckReport]:
    cache = MobiusCache()
    if args.sub == "enumerate":
        config = merge_config({**config, "nc": {**config["nc"], "m_max": args.m}})
        return nc_count_checks(config, cache)
    config = merge_config(
        {**config, "nc": {**config["nc"], "mobius_m_max": args.m,
                          "zeta_m_max": min(args.m, config["nc"]["zeta_m_max"]),
                          "column_m_max": max(args.m, config["nc"]["column_m_max"])}}
    )
    return mobius_checks(config, cache)


def cmd_qis(args, config) -> list[CheckReport]:
    section = "relations" if args.sub == "relations" else "extension"
    config = merge_config({**config, section: {**config[section], "classical_n_max": args.n}})
    return run_section(section, config)


def cmd_qperm_magic(args, config) -> list[CheckReport]:
    rep = parse_rep_spec(args.rep, None)
    tol = args.tolerance if args.tolerance is not None else config["tolerances"]["magic"]
    report = check_magic_unitary(rep, tolerance=tol)
    report.params["rep"] = args.rep
    return [report]


def cmd_inv(args, config) -> list[CheckReport]:
    cache = MobiusCache()
    if args.sub == "exchangeable":
        return run_section("exchangeable", config, cache)
    return run_section("spreadable", config, cache) + run_section("bvalued", config, cache)


def cmd_wg(args, config) -> list[CheckReport]:
    if args.sub == "psi":
        config = merge_config(
            {**config, "psi": {"k_max": args.k, "n_max": args.n, "m_max": args.mmax}}
        )
        return run_section("psi", config)
    return run_section("reconstruction", config)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path (or $QSPREAD_CONFIG)")
    common.add_argument("--out", help="write JSON-lines reports to this path")

    parser = argparse.ArgumentParser(
        prog="qspread",
        description="Exact and numerical checks for non-crossing partition "
        "calculus, free cumulants, and quantum symmetry representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="non-crossing partition checks")
    nc_sub = nc.add_subparsers(dest="sub", required=True)
    nc_enum = nc_sub.add_parser("enumerate", parents=[common],
                                help="counts vs Catalan recurrence")
    nc_enum.add_argument("--m", type=int, required=True)
    nc_mob = nc_sub.add_parser("mobius", parents=[common],
                               help="Mobius function identities")
    nc_mob.add_argument("--m", type=int, required=True)

    qis = sub.add_parser("qis", help="quantum increasing sequence checks")
    qis_sub = qis.add_subparsers(dest="sub", required=True)
    qis_rel = qis_sub.add_parser("relations", parents=[common],
                                 help="defining-relation residuals")
    qis_rel.add_argument("--n", type=int, required=True)
    qis_ext = qis_sub.add_parser("extend", parents=[common],
                                 help="extension to permutations")
    qis_ext.add_argument("--n", type=int, required=True)

    qperm = sub.add_parser("qperm", help="magic unitary checks")
    qperm_sub = qperm.add_subparsers(dest="sub", required=True)
    qperm_magic = qperm_sub.add_parser("magic", parents=[common])
    qperm_magic.add_argument("--rep", required=True,
                             help="permutation:2,1 | projection:theta=0.8 | "
                                  "extended:theta=0.8 | path.json")
    qperm_magic.add_argument("--tolerance", type=float)

    inv = sub.add_parser("inv", help="distributional invariance checks")
    inv_sub = inv.add_subparsers(dest="sub", required=True)
    inv_sub.add_parser("exchangeable", parents=[common])
    inv_sub.add_parser("spreadable", parents=[common])

    wg = sub.add_parser("wg", help="state moments and reconstruction")
    wg_sub = wg.add_subparsers(dest="sub", required=True)
    wg_psi = wg_sub.add_parser("psi", parents=[common],
                               help="closed form vs freeness oracle")
    wg_psi.add_argument("--k", type=int, default=3)
    wg_psi.add_argument("--n", type=int, default=3)
    wg_psi.add_argument("--mmax", type=int, default=4)
    wg_sub.add_parser("reconstruct", parents=[common])

    suite = sub.add_parser("suite", help="run whole check batteries")
    suite_sub = suite.add_subparsers(dest="sub", required=True)
    suite_sub.add_parser("all", parents=[common])

    sub.add_parser("config", parents=[common],
                   help="print the effective configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:  # JSONDecodeError and ConfigError too
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2

    if args.command == "config":
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0

    command = {
        "nc": cmd_nc, "qperm": cmd_qperm_magic, "inv": cmd_inv, "wg": cmd_wg,
        "qis": cmd_qis,
        "suite": lambda args, config: run_all(config),
    }[args.command]  # argparse admits only these
    try:
        reports = command(args, config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit(reports, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
