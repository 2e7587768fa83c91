"""Command-line batch runner.

Every subcommand runs one or more named checks and emits one JSON object per
check, either to stdout or to ``--out``.  Exit status: 0 when every check
passes, 1 when any check fails or errors, 2 on usage errors.

Each check has one definition, in ``qspread.suites``.  Every section
subcommand is one row of ``SUBCOMMANDS``: the suite sections it runs and the
config key each of its flags overrides.  A flag left out keeps the config's
value, so the runner has no defaults of its own.  ``qperm magic`` checks one
representation spec instead: ``permutation:i1,...,in``, ``projection`` or
``extended`` with an optional ``:theta=<finite float>``, or a file path; an
extension checks the increasing relations first.

The configuration file is a single JSON document, checked against the
package's ``config.schema.json``; missing keys take the schema's defaults
(see ``qspread config``), and a key, type or size the schema does not admit
exits 2.  The environment variable ``QSPREAD_CONFIG`` supplies a default path.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .partitions import MobiusCache
from .qis import Representation, quantum_extension, two_projection_rep
from .qperm import check_magic_unitary, permutation_rep, two_point_rep
from .linalg import projection_pair
from .reports import CheckReport
from .suites import check_schema, merge_config, run_all, run_section

CONFIG_ENV_VAR = "QSPREAD_CONFIG"
# Size budget of a representation file: 2.7 MiB of dense entries (n = dim = 16)
# decode in 0.15 s, 3.8 MiB of [0, 0] entries (n = 16, dim = 44) in 0.5-0.8 s (2 vCPUs).
REP_FILE_BYTES_MAX = 4 * 2**20
REP_SCHEMA = json.loads(Path(__file__).with_name("representation.schema.json").read_bytes())


def unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of both documents: ValueError names a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r} in one JSON object")
        out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    overrides = {}
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            overrides = json.load(handle, object_pairs_hook=unique_keys)
    return merge_config(overrides)


def rep_from_json(text: str) -> Representation:
    """Decode a representation document: checked against REP_SCHEMA, then for
    what the schema cannot state, generator keys 'i,j' in plain decimal inside
    1..n x 1..k, and ``Representation``'s checks.  Raises ValueError naming the
    first problem."""
    data = json.loads(text, object_pairs_hook=unique_keys)
    if not isinstance(data, dict):
        raise ValueError("a representation document must be a JSON object")
    check_schema(REP_SCHEMA, data, "")
    gens = {}
    for key, rows in data["gens"].items():
        i, _, j = key.partition(",")
        if not (i.isdecimal() and j.isdecimal() and key == f"{int(i)},{int(j)}"
                and 1 <= int(i) <= data["n"] and 1 <= int(j) <= data["k"]):
            raise ValueError(f"generator key {key!r} is not 'i,j' in plain decimal inside "
                             f"1..{data['n']} x 1..{data['k']}")
        dim = data["dim"]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError(f"generator {key!r} is not a {dim} x {dim} matrix")
        # the schema makes each entry an [re, im] pair of numbers
        pairs = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
        gens[(int(i), int(j))] = np.fromiter(pairs, float, 2 * dim * dim).view(complex) \
            .reshape(dim, dim)
    return Representation(kind=data["kind"], k=data["k"], n=data["n"], gens=gens,
                          dim=data["dim"], seed=data.get("seed"))


def parse_rep_spec(spec: str):
    """Build a representation from 'permutation:2,1', 'projection' or
    'extended' (theta 0.8), either followed by ':theta=<finite float>', or
    a JSON file path of at most REP_FILE_BYTES_MAX bytes (a larger file
    raises ValueError before it is decoded).  A family spec with anything
    else after its name raises ValueError naming that part."""
    family, colon, body = spec.partition(":")
    if family == "permutation" and colon:
        return permutation_rep(tuple(int(v) for v in body.split(",")))
    if family in ("projection", "extended"):
        theta = 0.8
        if colon:  # a wrong key, a bad number and a non-finite one all raise here
            key, _, value = body.partition("=")
            try:
                if key != "theta" or not math.isfinite(theta := float(value)):
                    raise ValueError
            except ValueError:
                raise ValueError(f"rep spec {spec!r}: {family} takes only "
                                 f"':theta=<finite float>', got {colon + body!r}") from None
        if family == "projection":
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


# Every section subcommand: (command, sub) -> (the suite sections it runs,
# None for the whole suite as run_all sorts it; {flag: the dotted config key
# the flag overrides}).
SUBCOMMANDS = {
    ("nc", "enumerate"): (("nc",), {"m": "nc.m_max"}),
    ("nc", "mobius"): (("mobius",), {"m": "nc.mobius_m_max"}),
    ("qis", "relations"): (("relations",), {"n": "relations.classical_n_max"}),
    ("qis", "extend"): (("extension",), {"n": "extension.classical_n_max"}),
    ("inv", "exchangeable"): (("exchangeable",), {}),
    ("inv", "spreadable"): (("spreadable", "bvalued"), {}),
    ("wg", "psi"): (("psi",), {"k": "psi.k_max", "n": "psi.n_max", "mmax": "psi.m_max"}),
    ("wg", "reconstruct"): (("reconstruction",), {}),
    ("suite", "all"): (None, {}),
}
COMMAND_HELP = {
    "nc": "non-crossing partition checks",
    "qis": "quantum increasing sequence checks",
    "inv": "distributional invariance checks",
    "wg": "state moments and reconstruction",
    "suite": "run whole check batteries",
}


def with_flags(args, config: dict, flags: dict) -> dict:
    """``config`` with each flag of ``args`` given written over the dotted
    key ``flags`` names for it, and validated again."""
    overrides = {}
    for flag, key in flags.items():
        if getattr(args, flag) is not None:
            section, leaf = key.split(".")
            overrides.setdefault(section, dict(config[section]))[leaf] = getattr(args, flag)
    return merge_config({**config, **overrides}) if overrides else config


def run_subcommand(args, config) -> list[CheckReport]:
    """The reports of the sections of ``args``' subcommand, on ``config``
    with its flags written over their keys."""
    sections, flags = SUBCOMMANDS[(args.command, args.sub)]
    config = with_flags(args, config, flags)
    if sections is None:
        return run_all(config)
    cache = MobiusCache()
    return [report for name in sections for report in run_section(name, config, cache)]


def cmd_qperm_magic(args, config) -> list[CheckReport]:
    config = with_flags(args, config, {"tolerance": "tolerances.magic"})
    report = check_magic_unitary(parse_rep_spec(args.rep), tolerance=config["tolerances"]["magic"])
    report.params["rep"] = args.rep
    return [report]


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
    groups = {}
    for (command, name), (sections, flags) in SUBCOMMANDS.items():
        if command not in groups:
            groups[command] = sub.add_parser(command, help=COMMAND_HELP[command]) \
                .add_subparsers(dest="sub", required=True)
        subcommand = groups[command].add_parser(
            name, parents=[common], help="suite sections: " + ", ".join(sections or ("all",)))
        for flag, key in flags.items():
            subcommand.add_argument(f"--{flag}", type=int, help=f"overrides {key}")

    qperm = sub.add_parser("qperm", help="magic unitary checks")
    qperm_magic = qperm.add_subparsers(dest="sub", required=True).add_parser(
        "magic", parents=[common])
    qperm_magic.add_argument("--rep", required=True,
                             help="permutation:2,1 | projection:theta=0.8 | "
                                  "extended:theta=0.8 | path.json")
    qperm_magic.add_argument("--tolerance", type=float, help="overrides tolerances.magic")

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

    command = cmd_qperm_magic if args.command == "qperm" else run_subcommand
    try:  # an unreadable --rep file or an unwritable --out path too
        return emit(command(args, config), args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
