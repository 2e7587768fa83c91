from __future__ import annotations

import copy
import itertools
import json
import math
from pathlib import Path

import jsonschema
import pytest

from qspread import cli, reports, weingarten
from qspread.cli import REP_FILE_BYTES_MAX, main, rep_from_json
from qspread.invariance import check_kernel_sums
from qspread.moments import moment_cumulant_roundtrip, random_matrix_law, semicircular_law
from qspread.partitions import MobiusCache, catalan
from qspread.qis import (
    INCREASING_N_MAX,
    IncreasingSequence,
    classical_point_rep,
    quantum_extension,
    two_projection_rep,
)
from qspread.qperm import MAGIC_CAPS, check_magic_unitary, permutation_rep
from qspread.reports import budget
from qspread.suites import (
    BVALUED_SIDE_CAP,
    DEFAULT_CONFIG,
    LAW_SIDE_CAPS,
    ConfigError,
    _collect,
    gram_size,
    merge_config,
    run_all,
    run_section,
)
from qspread.weingarten import (
    GRAM_SIZE_CAP,
    oracle_equivalence_sweep,
    state_positivity_evidence,
)

from helpers import rep_to_json, rep_to_json_dict

SCHEMA = json.loads((Path(__file__).parents[1] / "src" / "qspread" / "config.schema.json")
                    .read_text())
REP_SCHEMA = json.loads((Path(__file__).parents[1] / "src" / "qspread"
                         / "representation.schema.json").read_text())
# The work budgets, the schema's maximums, nested as the config is.
WORK_CAPS = _collect(SCHEMA, "maximum")
NC_M_CAPS = {key: cap for key, cap in WORK_CAPS["nc"].items() if key != "m_max"}
# An integer that json reads exactly and that no float holds.
HUGE = 10**400

TRIMMED = {
    "nc": {"m_max": 6, "mobius_m_max": 4, "zeta_m_max": 3, "column_m_max": 4},
    "roundtrip": {"scalar_m_max": 3, "matrix_m_max": 2},
    "relations": {"theta_count": 3, "classical_n_max": 4},
    "extension": {"theta_count": 3, "classical_n_max": 4},
    "kernel_sums": {"n_max": 3, "m_max": 3, "quantum_m_max": 2},
    "exchangeable": {"max_word_len": 3, "extended_word_len": 2},
    "spreadable": {"max_word_len": 3},
    "bvalued": {"max_word_len": 2},
    "psi": {"k_max": 2, "n_max": 2, "m_max": 3},
    "reconstruction": {"m_max": 2, "n_max": 2, "unit_m_max": 3, "unit_n_max": 3},
}

BROKEN_LAW = {
    "law": {
        "kind": "independent",
        "moments": {
            str(i): [1] + ([i, i * 2, i * 4, i * 8, i * 16, i * 32, i * 64])
            for i in (1, 2, 3, 4)
        },
    },
    "exchangeable": {"max_word_len": 2, "include_extended": False},
}


# (overrides, the key the error names, a subcommand that reads it)
BAD_KEYS = [
    ({"law": {"kind": "semicircluar"}}, "'law.kind'", ["inv", "exchangeable"]),
    ({"law": {"kind": ["matrix"]}}, "'law.kind'", ["inv", "exchangeable"]),
    ({"law": {"kind": "matrix", "dd": 3}}, "'law.dd'", ["inv", "exchangeable"]),
    ({"law": {"moments": [1, 0, 1]}}, "'law.moments'", ["inv", "spreadable"]),
    ({"law": {"kind": "scalar_moments"}}, "'law.moments'", ["inv", "exchangeable"]),
    ({"law": {"kind": "scalar_moments", "moments": {"1": [1]}}}, "'law.moments'",
     ["inv", "exchangeable"]),
    ({"law": {"kind": "independent", "moments": [1, 0, 1]}}, "'law.moments'",
     ["inv", "exchangeable"]),
    ({"law": {"kind": "matrix", "d": 2.0}}, "'law.d'", ["inv", "exchangeable"]),
    ({"law": {"kind": "rational_matrix", "D": True}}, "'law.D'", ["inv", "spreadable"]),
    ({"spreadable": {"block": {"k": 6, "n": 8, "dim": 8}}}, "'spreadable.block.k'",
     ["inv", "spreadable"]),
    ({"spreadable": {"block": {"n": 3}}}, "'spreadable.block.dim'", ["inv", "spreadable"]),
    ({"relations": {"block": {"n": 3}}}, "'relations.block.dim'", ["qis", "relations"]),
    ({"law": {"kind": "scalar_moments", "moments": ["x", 0, 1]}}, "'law.moments'",
     ["inv", "exchangeable"]),
    ({"law": {"kind": "independent", "moments": {"a": [1, 0, 1]}}}, "'law.moments.a'",
     ["inv", "exchangeable"]),
    ({"law": {"kind": "scalar_moments", "moments": [1, math.nan, 1]}}, "'law.moments'",
     ["inv", "exchangeable"]),
    ({"law": {"kind": "scalar_moments", "moments": [2, 0, 1]}}, "'law.moments'",
     ["inv", "exchangeable"]),
]

# (overrides, the key the error names)
WRONG_TYPES = [
    ({"nc": {"m_max": "10"}}, "'nc.m_max'"),
    ({"nc": {"m_max": 10.0}}, "'nc.m_max'"),
    ({"psi": {"k_max": True}}, "'psi.k_max'"),
    ({"tolerances": {"magic": True}}, "'tolerances.magic'"),
    ({"exchangeable": {"include_extended": 1}}, "'exchangeable.include_extended'"),
    ({"seed": "7"}, "'seed'"),
    ({"psi": 3}, "'psi'"),
]


IDENTITY_REP = rep_to_json_dict(permutation_rep((1, 2)))


def with_entry(document: dict, value) -> dict:
    """``document`` with the real part of its first matrix entry set to ``value``."""
    document = copy.deepcopy(document)
    document["gens"]["1,1"][0][0][0] = value
    return document


# (a representation document of a wrongly typed value, the key the error names)
MISTYPED_REPS = [
    ({**IDENTITY_REP, "k": 2.9, "n": 2.9}, "'k'"),
    ({**rep_to_json_dict(permutation_rep((1,))), "k": True}, "'k'"),
    ({**IDENTITY_REP, "k": 2.0}, "'k'"),
    ({**IDENTITY_REP, "dim": "1"}, "'dim'"),
    ({**IDENTITY_REP, "seed": "abc"}, "'seed'"),
    ({**IDENTITY_REP, "seed": 1.5}, "'seed'"),
    (with_entry(IDENTITY_REP, True), "'gens.1,1.0.0.0'"),
]


def write_config(tmp_path, overrides, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def read_reports(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines() if line]


def leaf_caps(caps, path=()):
    """(key path, cap) of every cap in a nested dict of caps."""
    for key, cap in caps.items():
        if isinstance(cap, dict):
            yield from leaf_caps(cap, path + (key,))
        else:
            yield path + (key,), cap


def at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def nested(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def at_size(path, value):
    """``nested(path, value)``, with a block family's dim raised to its n
    when ``path`` is that n: a block needs dim >= n, and its n cap was
    measured with dim = n."""
    if path[-2:] == ("block", "n"):
        return nested(path[:-1], {"n": value, "dim": value})
    return nested(path, value)


def schema_leaves(node, field, path=()):
    """(key path, value) of each ``field`` given on a property below the
    schema ``node``, as leaf_caps gives the caps."""
    for key, sub in node.get("properties", {}).items():
        if field in sub:
            yield path + (key,), sub[field]
        yield from schema_leaves(sub, field, path + (key,))


def schema_node(key):
    """The node of the dotted config key ``key`` in the schema the package
    reads, for a test to patch its maximum."""
    node = reports.SCHEMA
    for part in key.split("."):
        node = node["properties"][part]
    return node


def at_bound(path, value):
    """``nested(path, value)``, with the rest of a block family at its least
    sizes, so that dim >= n holds at dim's lower bound."""
    if "block" in path:
        return nested(path[:-1], {"k": 1, "n": 1, "dim": 1, path[-1]: value})
    return nested(path, value)


class TestBasicCommands:
    def test_nc_enumerate_count(self, capsys):
        assert main(["nc", "enumerate", "--m", "4"]) == 0
        (report,) = read_reports(capsys)
        assert report["check_name"] == "nc_counts"
        assert report["params"]["counts"]["4"] == 14
        assert report["status"] == "pass"

    def test_nc_enumerate_no_sizes_fails(self, capsys):
        # m = -1 is below the minimum of nc.m_max, so the CLI refuses it;
        # the section itself, on a config built around it, fails
        assert main(["nc", "enumerate", "--m", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "'nc.m_max' must be >= 0" in out.err
        config = copy.deepcopy(DEFAULT_CONFIG)
        config["nc"]["m_max"] = -1
        (report,) = run_section("nc", config, MobiusCache())
        assert report.status == "fail"
        assert report.witness == ["no cases examined"]

    def test_nc_mobius(self, capsys):
        assert main(["nc", "mobius", "--m", "4"]) == 0
        reports = read_reports(capsys)
        assert {r["check_name"] for r in reports} == {
            "mobius_identity", "mobius_zeta_table", "mobius_column_oracle",
        }
        assert all(r["max_residual"] == "exact-zero" for r in reports)

    def test_qis_relations_projection(self, capsys):
        assert main(["qis", "relations", "--n", "2"]) == 0
        reports = {r["check_name"]: r for r in read_reports(capsys)}
        assert set(reports) == {"increasing_relations_projection_family",
                                "increasing_relations_classical_points",
                                "increasing_relations_block_family"}
        projection = reports["increasing_relations_projection_family"]
        assert projection["status"] == "pass"
        assert projection["params"]["theta_count"] == DEFAULT_CONFIG["relations"]["theta_count"]
        assert reports["increasing_relations_classical_points"]["params"]["n_max"] == 2

    def test_qis_extend(self, capsys):
        assert main(["qis", "extend", "--n", "4"]) == 0
        reports = read_reports(capsys)
        names = {r["check_name"] for r in reports}
        assert names == {"extension_classical_points", "extension_magic_unitary"}
        assert all(r["status"] == "pass" for r in reports)

    def test_qperm_magic_builtin(self, capsys):
        assert main(["qperm", "magic", "--rep", "permutation:2,1,3"]) == 0
        (report,) = read_reports(capsys)
        assert report["max_residual"] == "exact-zero"

    def test_qperm_magic_from_file(self, tmp_path, capsys):
        from qspread.qis import quantum_extension, two_projection_rep

        path = tmp_path / "rep.json"
        path.write_text(rep_to_json(quantum_extension(two_projection_rep(0.6))))
        assert main(["qperm", "magic", "--rep", str(path)]) == 0
        (report,) = read_reports(capsys)
        assert report["status"] == "pass"

    def test_wg_psi(self, capsys):
        assert main(["wg", "psi", "--k", "2", "--n", "2", "--mmax", "3"]) == 0
        reports = read_reports(capsys)
        sweep = next(r for r in reports if r["check_name"] == "state_oracle_equivalence")
        assert sweep["max_residual"] == "exact-zero"

    def test_config_command(self, capsys):
        assert main(["config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == merge_config(None) == merge_config(DEFAULT_CONFIG)


class TestSubcommandTable:
    """Every section subcommand emits exactly its sections' reports, with
    each flag given written over one config key and every other value taken
    from the config."""

    # argv, the sections it runs (None: the whole suite), the override
    ROWS = [
        (["nc", "enumerate", "--m", "3"], ("nc",), {"nc": {"m_max": 3}}),
        (["nc", "mobius", "--m", "3"], ("mobius",), {"nc": {"mobius_m_max": 3}}),
        (["qis", "relations", "--n", "3"], ("relations",),
         {"relations": {"classical_n_max": 3}}),
        (["qis", "extend", "--n", "3"], ("extension",), {"extension": {"classical_n_max": 3}}),
        (["inv", "exchangeable"], ("exchangeable",), {}),
        (["inv", "spreadable"], ("spreadable", "bvalued"), {}),
        (["wg", "psi", "--k", "1", "--n", "2", "--mmax", "2"], ("psi",),
         {"psi": {"k_max": 1, "n_max": 2, "m_max": 2}}),
        (["wg", "reconstruct"], ("reconstruction",), {}),
        (["suite", "all"], None, {}),
    ]

    def test_every_row_is_covered(self):
        assert {tuple(argv[:2]) for argv, _, _ in self.ROWS} == set(cli.SUBCOMMANDS)

    @pytest.mark.parametrize("argv, sections, override", ROWS,
                             ids=["-".join(argv[:2]) for argv, _, _ in ROWS])
    def test_lines_equal_the_sections_under_the_override(self, tmp_path, capsys, argv,
                                                          sections, override):
        assert main(argv + ["--config", write_config(tmp_path, TRIMMED)]) == 0
        got = read_reports(capsys)
        config = merge_config({**TRIMMED, **{section: {**TRIMMED.get(section, {}), **values}
                                             for section, values in override.items()}})
        cache = MobiusCache()
        reports = (run_all(config) if sections is None else
                   [report for name in sections for report in run_section(name, config, cache)])
        want = [report.to_json_dict() for report in reports]
        for row in got + want:
            row.pop("runtime_ms")
        assert got == want and got

    def test_flags_default_to_the_config(self):
        parser = cli.build_parser()
        for (command, sub), (_, flags) in cli.SUBCOMMANDS.items():
            args = parser.parse_args([command, sub])
            assert all(getattr(args, flag) is None for flag in flags), (command, sub)

    def test_wg_psi_runs_the_config_file(self, tmp_path, capsys):
        sizes = {"k_max": 2, "n_max": 2, "m_max": 2}
        assert main(["wg", "psi", "--config", write_config(tmp_path, {"psi": sizes})]) == 0
        sweep = next(r for r in read_reports(capsys)
                     if r["check_name"] == "state_oracle_equivalence")
        assert {key: sweep["params"][key] for key in sizes} == sizes

    def test_nc_mobius_keeps_the_config_oracle_sizes(self, capsys):
        assert main(["nc", "mobius", "--m", "3"]) == 0
        sizes = {r["check_name"]: r["params"]["m_max"] for r in read_reports(capsys)}
        assert sizes == {"mobius_identity": 3,
                         "mobius_zeta_table": DEFAULT_CONFIG["nc"]["zeta_m_max"],
                         "mobius_column_oracle": DEFAULT_CONFIG["nc"]["column_m_max"]}


class TestQisSubcommands:
    """``qis relations`` and ``qis extend`` run the ``relations`` and
    ``extension`` suite sections with ``--n`` as their classical_n_max."""

    SUBCOMMANDS = [("relations", "relations", "increasing_relations_classical_points"),
                   ("extend", "extension", "extension_classical_points")]

    @pytest.mark.parametrize("sub, section, classical", SUBCOMMANDS)
    def test_no_classical_points_fails(self, capsys, sub, section, classical):
        # n = 0 is below the minimum of classical_n_max, so the CLI refuses
        # it; the section itself, on a config built around it, fails
        assert main(["qis", sub, "--n", "0"]) == 2
        assert f"'{section}.classical_n_max' must be >= 1" in capsys.readouterr().err
        config = copy.deepcopy(DEFAULT_CONFIG)
        config[section]["classical_n_max"] = 0
        report = next(r for r in run_section(section, config, MobiusCache())
                      if r.check_name == classical)
        assert report.status == "fail" and report.witness == ["no cases examined"]

    @pytest.mark.parametrize("sub, section, classical", SUBCOMMANDS)
    def test_over_the_cap_is_2(self, capsys, sub, section, classical):
        cap = WORK_CAPS[section]["classical_n_max"]
        assert main(["qis", sub, "--n", str(cap + 1)]) == 2
        out = capsys.readouterr()
        assert f"'{section}.classical_n_max'" in out.err and out.out == ""


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["nc", "enumerate", "--bogus", "4"]) == 2

    def test_missing_subcommand_is_2(self):
        assert main([]) == 2

    def test_missing_config_file_is_2(self, capsys):
        assert main(["suite", "all", "--config", "/nonexistent/config.json"]) == 2

    def test_malformed_rep_spec_is_2(self, capsys):
        assert main(["qperm", "magic", "--rep", "permutation:one,two"]) == 2
        assert main(["qperm", "magic", "--rep", "permutation:1,1"]) == 2

    def test_unreadable_rep_file_is_2(self, tmp_path, capsys):
        assert main(["qperm", "magic", "--rep", str(tmp_path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and str(tmp_path) in out.err

    @pytest.mark.parametrize("target", ["missing/x.jsonl", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_is_2(self, tmp_path, capsys, target):
        path = tmp_path / target
        assert main(["nc", "enumerate", "--m", "3", "--out", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and str(path) in out.err

    def test_negative_control_fails_with_witness(self, tmp_path, capsys):
        config = write_config(tmp_path, {**TRIMMED, **BROKEN_LAW}, "broken.json")
        assert main(["inv", "exchangeable", "--config", config]) == 1
        reports = read_reports(capsys)
        failed = [r for r in reports if r["status"] == "fail"]
        assert failed
        assert all(r["witness"] is not None for r in failed)
        assert any(r["witness"] and r["witness"][0] == "word" for r in failed)


class TestRepSpecs:
    """A family spec is exactly 'projection' or 'extended', optionally
    followed by ':theta=<finite float>'; anything else exits 2 and names the
    part that is wrong, before any check runs."""

    @pytest.mark.parametrize("spec, part", [
        ("extended:tehta=0.7", "':tehta=0.7'"),
        ("extended:theta=0.7,foo=1", "':theta=0.7,foo=1'"),
        ("extendedXYZ", "'extendedXYZ'"),
        ("projection:theta=nan", "':theta=nan'"),
        ("projection:theta=inf", "':theta=inf'"),
        ("projection:theta=", "':theta='"),
        ("extended:", "':'"),
    ])
    def test_bad_spec_is_2_and_names_the_part(self, capsys, spec, part):
        assert main(["qperm", "magic", "--rep", spec]) == 2
        out = capsys.readouterr()
        assert out.out == "" and part in out.err, out.err

    @pytest.mark.parametrize("spec", ["extended:theta=0.7", "projection:theta=0.7",
                                      "extended", "projection"])
    def test_valid_spec_runs_and_keeps_its_name(self, capsys, spec):
        assert main(["qperm", "magic", "--rep", spec]) == 0
        (report,) = read_reports(capsys)
        assert report["params"]["rep"] == spec and report["status"] == "pass"


class TestMagicTolerance:
    """``qperm magic --tolerance`` overrides tolerances.magic and is validated
    with the config, so a value the config does not admit exits 2 naming the
    key before any check runs."""

    @staticmethod
    def not_a_projection(tmp_path) -> str:
        rep = permutation_rep((1, 2))
        rep.gens[(1, 1)] = rep.gens[(1, 1)] * 3  # u_11 = 3 is no projection
        path = tmp_path / "bad.json"
        path.write_text(rep_to_json(rep))
        return str(path)

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"], ids=["inf", "nan", "negative"])
    def test_inadmissible_value_is_2(self, tmp_path, capsys, value):
        argv = ["qperm", "magic", "--rep", self.not_a_projection(tmp_path), "--tolerance", value]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "'tolerances.magic'" in out.err, out.err

    def test_flag_overrides_the_config(self, tmp_path, capsys):
        rep = self.not_a_projection(tmp_path)
        config = write_config(tmp_path, {"tolerances": {"magic": 10}})
        assert main(["qperm", "magic", "--rep", rep, "--config", config]) == 0
        assert main(["qperm", "magic", "--rep", rep, "--config", config,
                     "--tolerance", "0.5"]) == 1
        first, second = read_reports(capsys)
        assert (first["params"]["tolerance"], second["params"]["tolerance"]) == (10, 0.5)


class TestMalformedRepFile:
    """A representation file that does not match the schema is a usage
    error (exit 2 with ``error: ...``), never a traceback or a silent pass."""

    @staticmethod
    def run_with(tmp_path, capsys, document) -> tuple[int, str]:
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(document))
        code = main(["qperm", "magic", "--rep", str(path)])
        return code, capsys.readouterr().err

    def test_missing_key_is_2(self, tmp_path, capsys):
        code, err = self.run_with(tmp_path, capsys, {"k": 2})
        assert code == 2
        assert err.startswith("error:") and "gens" in err and "Traceback" not in err

    def test_row_not_pairs_is_2(self, tmp_path, capsys):
        document = copy.deepcopy(IDENTITY_REP)
        document["gens"]["1,1"] = [[1.0]]
        code, err = self.run_with(tmp_path, capsys, document)
        assert code == 2
        assert err.startswith("error:") and "gens.1,1" in err

    def test_unknown_top_level_key_is_2(self, tmp_path, capsys):
        code, err = self.run_with(tmp_path, capsys, {**IDENTITY_REP, "sed": 3})
        assert code == 2
        assert err == "error: unknown key 'sed'\n", err
        assert not jsonschema.Draft202012Validator(REP_SCHEMA).is_valid({**IDENTITY_REP, "sed": 3})

    @pytest.mark.parametrize("pair, message", [
        (["1", 0], "key 'gens.1,1.0.0.0' must be number, got '1'"),
        ([0, True], "key 'gens.1,1.0.0.1' must be number, got True"),
        ([math.nan, "1"], "key 'gens.1,1.0.0.0' must be finite, got nan"),
        ([0, math.inf], "key 'gens.1,1.0.0.1' must be finite, got inf"),
        ([0, 0, 0], "key 'gens.1,1.0.0' must have 2 to 2 items, got 3"),
        ([HUGE, 0], f"key 'gens.1,1.0.0.0' must be finite, got {HUGE}"),
    ], ids=["string", "bool", "nan-first", "inf", "wrong-length", "huge-int"])
    def test_entry_messages_name_the_first_bad_index(self, pair, message):
        document = copy.deepcopy(IDENTITY_REP)
        document["gens"]["1,1"][0][0] = pair
        with pytest.raises(ConfigError) as error:
            rep_from_json(json.dumps(document))
        assert str(error.value) == message

    @pytest.mark.parametrize("document, key", MISTYPED_REPS, ids=[
        "k-n-float", "k-boolean", "k-integral-float", "dim-string", "seed-string",
        "seed-float", "boolean-entry"])
    def test_wrongly_typed_value_is_2_and_named(self, tmp_path, capsys, document, key):
        code, err = self.run_with(tmp_path, capsys, document)
        assert code == 2
        assert err.startswith("error:") and key in err, err

    # Documents that JSON Schema accepts and rep_from_json rejects, each by a
    # rule the schema cannot state.
    BEYOND_THE_SCHEMA = [
        ({**IDENTITY_REP, "k": 2.0}, "2.0 is not an integer"),
        (with_entry(IDENTITY_REP, math.nan), "a non-finite number"),
        (with_entry(IDENTITY_REP, math.inf), "a non-finite number"),
        (with_entry(IDENTITY_REP, HUGE), "an int that no float holds"),
        ({**IDENTITY_REP, "gens": {**IDENTITY_REP["gens"], "3,7": IDENTITY_REP["gens"]["1,1"]}},
         "a generator key inside 1..n x 1..k"),
        ({**IDENTITY_REP, "gens": {**IDENTITY_REP["gens"], "one,1": IDENTITY_REP["gens"]["1,1"]}},
         "a generator key inside 1..n x 1..k"),
        ({**IDENTITY_REP, "gens": {**IDENTITY_REP["gens"], "01,1": IDENTITY_REP["gens"]["1,1"]}},
         "a generator key in plain decimal"),
        ({**IDENTITY_REP, "gens": {**IDENTITY_REP["gens"], "\u0661,1": IDENTITY_REP["gens"]["1,1"]}},
         "a generator key in plain decimal"),
        ({**rep_to_json_dict(classical_point_rep(IncreasingSequence(1, 2, (1,)))),
          "kind": "permutation"}, "k = n for kind permutation"),
    ]

    def test_schema_and_rep_from_json_agree(self):
        """JSON Schema, the reference, and rep_from_json give the same verdict
        on valid documents, on each wrongly typed value, on each missing key
        and on documents that are not objects; BEYOND_THE_SCHEMA is the only
        difference."""
        jsonschema.Draft202012Validator.check_schema(REP_SCHEMA)
        validator = jsonschema.Draft202012Validator(REP_SCHEMA)

        def verdicts(document):
            try:
                rep_from_json(json.dumps(document))
            except ValueError:
                return False, validator.is_valid(document)
            return True, validator.is_valid(document)

        extension = rep_to_json_dict(quantum_extension(two_projection_rep(0.6)))
        assert extension["seed"] is None
        cases = [IDENTITY_REP, extension, {**IDENTITY_REP, "seed": 7},
                 {**IDENTITY_REP, "sed": 3}]
        cases += [document for document, _ in MISTYPED_REPS]
        cases += [{**IDENTITY_REP, "gens": gens} for gens in ([], "1,1", None)]
        cases += [{key: value for key, value in IDENTITY_REP.items() if key != missing}
                  for missing in REP_SCHEMA["required"]]
        cases += [with_entry(IDENTITY_REP, "1"), {**IDENTITY_REP, "kind": "magic"},
                  {**IDENTITY_REP, "dim": 0}, [], 0, "rep", None]
        beyond = {json.dumps(document): reason for document, reason in self.BEYOND_THE_SCHEMA}
        for document in cases:
            if json.dumps(document) not in beyond:
                decoded, valid = verdicts(document)
                assert decoded == valid, (document, decoded)
        for document, reason in self.BEYOND_THE_SCHEMA:
            assert verdicts(document) == (False, True), reason

    @pytest.mark.parametrize("matrix", [[], [[]], [[[1, 0]], [[1, 0], [0, 0]]]],
                             ids=["empty", "empty-row", "ragged"])
    def test_generator_that_is_not_a_matrix_is_2(self, tmp_path, capsys, matrix):
        document = copy.deepcopy(IDENTITY_REP)
        document["gens"]["1,1"] = matrix
        code, err = self.run_with(tmp_path, capsys, document)
        assert code == 2
        assert err.startswith("error:") and "'1,1'" in err and "Traceback" not in err

    @pytest.mark.parametrize("alias", ["01,1", "1,01", "\u0661,1"],
                             ids=["leading-zero-row", "leading-zero-column", "arabic-indic-digit"])
    def test_two_keys_naming_one_generator_is_2(self, tmp_path, capsys, alias):
        # "1,1" is no projection; a later key that read as (1, 1) used to replace it
        document = copy.deepcopy(IDENTITY_REP)
        document["gens"]["1,1"] = [[[5, 0]]]
        document["gens"][alias] = [[[1, 0]]]
        code, err = self.run_with(tmp_path, capsys, document)
        assert code == 2
        assert err == (f"error: generator key {alias!r} is not 'i,j' in plain decimal "
                       "inside 1..2 x 1..2\n"), err

    def test_repeated_generator_key_is_2(self, tmp_path, capsys):
        # raw text: a dict cannot hold the key twice; json alone would keep [[1]]
        path = tmp_path / "rep.json"
        path.write_text('{"kind": "permutation", "k": 1, "n": 1, "dim": 1, '
                        '"gens": {"1,1": [[[5, 0]]], "1,1": [[[1, 0]]]}}')
        assert main(["qperm", "magic", "--rep", str(path)]) == 2
        assert capsys.readouterr().err == "error: repeated key '1,1' in one JSON object\n"

    def test_generator_key_outside_family_is_2(self, tmp_path, capsys):
        document = copy.deepcopy(IDENTITY_REP)
        document["gens"]["3,7"] = document["gens"]["1,1"]
        code, err = self.run_with(tmp_path, capsys, document)
        assert code == 2
        assert err.startswith("error:") and "'3,7'" in err

    def test_file_over_the_size_budget_is_2_before_decoding(self, tmp_path, capsys,
                                                             monkeypatch):
        document = json.dumps(IDENTITY_REP)
        path = tmp_path / "rep.json"
        path.write_text(document)
        monkeypatch.setattr(cli, "REP_FILE_BYTES_MAX", len(document))
        assert main(["qperm", "magic", "--rep", str(path)]) == 0  # at the budget
        capsys.readouterr()
        path.write_text(document + " ")

        def no_decoding(text):
            raise AssertionError("decoded a file over the size budget")

        monkeypatch.setattr(cli, "rep_from_json", no_decoding)
        assert main(["qperm", "magic", "--rep", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert out.err.startswith("error:") and f"size budget of {len(document)} bytes" in out.err

    def test_file_over_the_shipped_budget_is_2(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_bytes(b" " * (REP_FILE_BYTES_MAX + 1))
        assert main(["qperm", "magic", "--rep", str(path)]) == 2
        assert f"size budget of {REP_FILE_BYTES_MAX} bytes" in capsys.readouterr().err


class TestSuiteAll:
    def test_trimmed_suite_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, TRIMMED)
        assert main(["suite", "all", "--config", config]) == 0
        reports = read_reports(capsys)
        assert len(reports) == 27
        assert all(r["status"] == "pass" for r in reports)
        names = {r["check_name"] for r in reports}
        assert "exchangeable_negative_control" in names
        assert "spreadable_negative_control" in names

    @pytest.mark.parametrize("command, section, rollup", [
        ("suite", {"kernel_sums": {"m_max": 0}}, "kernel_sums_permutation_reps"),
        ("inv", {"exchangeable": {"max_word_len": 0, "spot_length": 0,
                                  "extended_word_len": 0}}, "exchangeable_permutation_reps"),
    ])
    def test_rollup_over_no_cases_fails(self, tmp_path, capsys, command, section, rollup):
        # sizes that leave no case are below their minimums, so the CLI
        # refuses them; the section, on a config built around them, fails
        path = write_config(tmp_path, {**TRIMMED, **section})
        args = ["suite", "all"] if command == "suite" else ["inv", "exchangeable"]
        assert main(args + ["--config", path]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        ((name, sizes),) = section.items()
        config = merge_config(TRIMMED)
        config[name].update(sizes)
        report = next(r for r in run_section(name, config, MobiusCache())
                      if r.check_name == rollup)
        assert report.status == "fail"
        assert report.witness[0] == "perm" and report.witness[-1] == ["no cases examined"]

    def test_out_file(self, tmp_path):
        config = write_config(tmp_path, TRIMMED)
        out = tmp_path / "reports.jsonl"
        assert main(["nc", "enumerate", "--m", "3", "--config", config,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["check_name"] == "nc_counts"

    def test_determinism_modulo_runtime(self, tmp_path):
        config = write_config(tmp_path, TRIMMED)
        out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
        assert main(["suite", "all", "--config", config, "--out", str(out1)]) == 0
        assert main(["suite", "all", "--config", config, "--out", str(out2)]) == 0

        def canonical(path):
            rows = []
            for line in path.read_text().strip().splitlines():
                row = json.loads(line)
                row.pop("runtime_ms")
                rows.append(json.dumps(row, sort_keys=True))
            return rows

        assert canonical(out1) == canonical(out2)

    def test_report_params_allow_rerun(self, capsys):
        # a single check is reproducible from its emitted parameters alone
        assert main(["qperm", "magic", "--rep", "extended:theta=0.42"]) == 0
        (first,) = read_reports(capsys)
        spec = first["params"]["rep"]
        assert main(["qperm", "magic", "--rep", spec,
                     "--tolerance", str(first["params"]["tolerance"])]) == 0
        (second,) = read_reports(capsys)
        first.pop("runtime_ms"), second.pop("runtime_ms")
        assert first == second


class TestConfigValidation:
    def run_config(self, tmp_path, capsys, overrides):
        code = main(["config", "--config", write_config(tmp_path, overrides)])
        return code, capsys.readouterr()

    def test_misspelled_section_is_2(self, tmp_path, capsys):
        code, out = self.run_config(tmp_path, capsys, {"exchangable": {"theta": 0.8}})
        assert code == 2 and "'exchangable'" in out.err and out.out == ""
        path = write_config(tmp_path, {"exchangable": {"theta": 0.8}}, "typo.json")
        assert main(["inv", "exchangeable", "--config", path]) == 2

    def test_nested_unknown_key_names_dotted_path(self, tmp_path, capsys):
        code, out = self.run_config(tmp_path, capsys, {"relations": {"block": {"dimm": 2}}})
        assert code == 2 and "'relations.block.dimm'" in out.err

    def test_wrong_leaf_types_are_2(self, tmp_path, capsys):
        for overrides, path in WRONG_TYPES:
            code, out = self.run_config(tmp_path, capsys, overrides)
            assert code == 2 and path in out.err, overrides

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 1, "nc": {"m_max": 3}, "seed": 2}', "seed"),
        ('{"nc": {"m_max": 100, "m_max": 3}}', "m_max"),
    ], ids=["top-level", "nested"])
    @pytest.mark.parametrize("through_env", [False, True], ids=["flag", "env"])
    def test_repeated_key_is_2_and_named(self, tmp_path, capsys, monkeypatch, text, key,
                                         through_env):
        # raw text: a dict cannot hold the key twice; json alone keeps the last
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["nc", "enumerate"]
        if through_env:
            monkeypatch.setenv("QSPREAD_CONFIG", str(path))
        else:
            argv += ["--config", str(path)]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot load config: repeated key {key!r} in one JSON object\n"

    def test_non_object_document_is_2(self, tmp_path, capsys):
        for document in ([1, 2], [], 0):
            code, out = self.run_config(tmp_path, capsys, document)
            assert code == 2 and "object" in out.err, document

    def test_merged_config_shares_no_dict_with_the_defaults(self):
        def dicts(config):
            yield config
            for value in config.values():
                if isinstance(value, dict):
                    yield from dicts(value)

        changed = merge_config(None)
        changed["nc"]["m_max"] = 3
        changed["relations"]["block"]["dim"] = 5
        fresh = merge_config(None)
        assert fresh["nc"]["m_max"] == 10 and fresh["relations"]["block"]["dim"] == 2
        shared = {id(d) for d in dicts(DEFAULT_CONFIG)}
        assert not shared & {id(d) for d in dicts(merge_config({"nc": {"m_max": 4}}))}

    def test_int_accepted_for_float_and_law_is_free_form(self, tmp_path, capsys):
        code, out = self.run_config(
            tmp_path, capsys,
            {"tolerances": {"magic": 0}, "law": {"kind": "independent", "moments": {"1": [1]}}})
        assert code == 0
        printed = json.loads(out.out)
        assert printed["tolerances"]["magic"] == 0
        assert printed["law"] == {"kind": "independent", "moments": {"1": [1]}}

    @pytest.mark.parametrize("key, argv", [
        ("tolerances.magic", ["qperm", "magic", "--rep", "permutation:2,1"]),
        ("tolerances.relations", ["qis", "relations"]),
        ("tolerances.positivity", ["wg", "psi"]),
        ("exchangeable.theta", ["inv", "exchangeable"]),
    ])
    def test_int_that_no_float_holds_is_2_and_named(self, tmp_path, capsys, key, argv):
        section, leaf = key.split(".")
        assert main([*argv, "--config", write_config(tmp_path, {section: {leaf: HUGE}})]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: cannot load config: key '{key}' "
                                                    f"must be finite, got {HUGE}"), out.err
        assert "Traceback" not in out.err
        # an integer key holds any int
        assert merge_config({"seed": HUGE})["seed"] == HUGE

    def test_values_below_their_bounds_are_2(self, tmp_path, capsys):
        broken = json.loads((Path(__file__).parents[1] / "docs" / "examples" / "broken.json")
                            .read_text())
        for overrides, key in (
            ({"positivity": {"k": -1}}, "'positivity.k' must be >= 1"),
            ({"seed": -100}, "'seed' must be >= 0"),
            ({"law": {"kind": "matrix", "d": 0}}, "'law.d' must be >= 1"),
            ({"nc": {"m_max": -3}}, "'nc.m_max' must be >= 0"),
            ({"tolerances": {"magic": -1e-9}}, "'tolerances.magic' must be >= 0"),
            ({**broken, "tolerances": {"exchangeable": math.inf}},
             "'tolerances.exchangeable' must be finite"),
        ):
            path = write_config(tmp_path, overrides)
            assert main(["suite", "all", "--config", path]) == 2, overrides
            out = capsys.readouterr()
            assert out.out == "" and key in out.err, out.err

    # Overrides that JSON Schema accepts and merge_config rejects, each by a
    # rule the schema cannot state.
    BEYOND_THE_SCHEMA = [
        ({"nc": {"m_max": 10.0}}, "10.0 as an integer"),
        ({"law": {"kind": "matrix", "d": 2.0}}, "10.0 as an integer"),
        ({"tolerances": {"exchangeable": math.inf}}, "a non-finite number"),
        ({"exchangeable": {"theta": math.nan}}, "a non-finite number"),
        ({"tolerances": {"magic": HUGE}}, "an int that no float holds"),
        ({"tolerances": {"relations": HUGE}}, "an int that no float holds"),
        ({"tolerances": {"positivity": HUGE}}, "an int that no float holds"),
        ({"exchangeable": {"theta": HUGE}}, "an int that no float holds"),
        ({"law": {"kind": "matrix", "d": 393}}, "d*D"),
        ({"law": {"kind": "rational_matrix", "D": 11}}, "d*D"),
        ({"bvalued": {"d": 1, "D": BVALUED_SIDE_CAP + 1}}, "d*D"),
        ({"spreadable": {"block": {"k": 6, "n": 8, "dim": 8}}}, "k*n"),
        ({"spreadable": {"block": {"n": 3}}}, "dim >= n"),
        ({"relations": {"block": {"n": 3}}}, "dim >= n"),
        ({"positivity": {"n": 9}}, "the Gram size"),
        ({"law": {"kind": "scalar_moments", "moments": ["x", 0, 1]}}, "the moment lists"),
        ({"law": {"kind": "independent", "moments": {"a": [1, 0, 1]}}}, "the moment lists"),
        ({"law": {"kind": "scalar_moments", "moments": [1, math.nan, 1]}}, "the moment lists"),
        ({"law": {"kind": "scalar_moments", "moments": [2, 0, 1]}}, "the moment lists"),
    ]

    def test_schema_and_merge_config_agree(self):
        """JSON Schema, the reference, and merge_config give the same verdict
        on the overrides of the exit-2 tests, on each cap and each lower
        bound and one step past it, on the law's kinds and on unknown keys;
        BEYOND_THE_SCHEMA is the only difference."""
        for kind, cap in LAW_SIDE_CAPS.items():
            variant = next(v for v in SCHEMA["properties"]["law"]["oneOf"]
                           if v["properties"]["kind"]["const"] == kind)
            assert f"d*D <= {cap} (work budget)" in variant["description"]
        assert (f"d*D <= {BVALUED_SIDE_CAP} (work budget)"
                in SCHEMA["properties"]["bvalued"]["description"])
        validator = jsonschema.Draft202012Validator(SCHEMA)

        def verdicts(overrides):
            try:
                merge_config(overrides)
            except ConfigError:
                return False, validator.is_valid(overrides)
            return True, validator.is_valid(overrides)

        cases = [overrides for overrides, _, _ in BAD_KEYS]
        cases += [overrides for overrides, _ in WRONG_TYPES]
        for path, cap in leaf_caps(WORK_CAPS):
            cases += [at_size(path, cap), at_size(path, cap + 1)]
        for path, low in schema_leaves(SCHEMA, "minimum"):
            cases += [at_bound(path, low), at_bound(path, low - 1)]
        for kind, key in itertools.product(LAW_SIDE_CAPS, "dD"):
            cases += [{"law": {"kind": kind, key: 1}}, {"law": {"kind": kind, key: 0}}]
        for law in ({}, {"kind": "semicircular"}, {"kind": "matrix", "d": 3},
                    {"kind": "scalar_moments", "moments": [1, 0, 1]},
                    {"kind": "scalar_moments", "moments": ["1", 0.5, "2/3"]},
                    {"kind": "independent", "moments": {"1": [1]}}, {"moments": [1]},
                    {"kind": "independent", "moments": [1]},
                    {"kind": "rational_matrix", "d": 1.5}):
            cases.append({"law": law})
        cases += [{"bogus": 1}, {"nc": {"foo": 1}}, {"relations": {"block": {"dimm": 2}}},
                  {"exchangable": {"theta": 0.8}}, {"tolerances": {"magic": 0}}, {}, [], 0]
        beyond = {json.dumps(overrides): reason for overrides, reason in self.BEYOND_THE_SCHEMA}
        for overrides in cases:
            if json.dumps(overrides) not in beyond:
                merged, valid = verdicts(overrides)
                assert merged == valid, (overrides, merged)
        for overrides, reason in self.BEYOND_THE_SCHEMA:
            assert verdicts(overrides) == (False, True), reason


class TestLawAndBlockKeys:
    """The keys of ``law`` are those its kind reads, with a work budget on the
    matrix sizes, and each block family must fit its checks; anything else
    exits 2 naming the key before a section runs."""

    @pytest.mark.parametrize("overrides, key, argv", BAD_KEYS)
    def test_bad_key_is_2_and_named(self, tmp_path, capsys, overrides, key, argv):
        assert main([*argv, "--config", write_config(tmp_path, overrides)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and key in out.err, out.err

    # (the section, the keys that pick the law, its side cap, and d and D at
    # the separate caps they had before the side d*D was capped)
    SIDES = [("law", {"kind": "matrix"}, LAW_SIDE_CAPS["matrix"], 432, 459),
             ("law", {"kind": "rational_matrix"}, LAW_SIDE_CAPS["rational_matrix"], 11, 12),
             ("bvalued", {}, BVALUED_SIDE_CAP, 587, 625)]

    @pytest.mark.parametrize("section, law, cap, d, D", SIDES,
                             ids=["matrix", "rational_matrix", "bvalued"])
    def test_matrix_side_at_and_over_the_cap(self, tmp_path, capsys, section, law, cap, d, D):
        for shape in ((cap, 1), (1, cap), (cap // 2, 2)):
            sizes = dict(zip("dD", shape))
            assert {key: merge_config({section: {**law, **sizes}})[section][key]
                    for key in "dD"} == sizes
        for shape in ((cap + 1, 1), (1, cap + 1), (d, D)):
            config = write_config(tmp_path, {section: {**law, **dict(zip("dD", shape))}})
            assert main(["config", "--config", config]) == 2, shape
            out = capsys.readouterr()
            assert (f"'{section}.d' and '{section}.D'" in out.err and "work budget" in out.err
                    and out.out == ""), shape

    @pytest.mark.parametrize("section", ["exchangeable", "spreadable"])
    def test_catalan_scalar_moments_give_the_semicircular_reports(self, section):
        # the Catalan moments are the semicircular law's, so only the law's
        # name, in the two reports that carry it, may differ
        moments = [catalan(p // 2) if p % 2 == 0 else 0 for p in range(17)]
        named = {"exchangeable_projection_rep", "exchangeable_permutation_reps"}
        rows = {}
        for kind, law in (("semicircular", {"kind": "semicircular"}),
                          ("scalar_moments", {"kind": "scalar_moments", "moments": moments})):
            rows[kind] = [r.to_json_dict() for r in
                          run_section(section, merge_config({"law": law}), MobiusCache())]
            for row in rows[kind]:
                row.pop("runtime_ms")
                if row["check_name"] in named:
                    assert row["params"].pop("law") == kind
        assert rows["scalar_moments"] == rows["semicircular"] and rows["semicircular"]
        assert "error" not in {row["status"] for row in rows["semicircular"]}


class TestMobiusWorkBudget:
    """Mobius sizes above their caps are rejected up front (exit 2, naming
    the key) instead of running for minutes or hours."""

    def test_caps_admit_the_defaults(self):
        assert all(DEFAULT_CONFIG["nc"][key] <= cap for key, cap in NC_M_CAPS.items())
        nc = SCHEMA["properties"]["nc"]["properties"]
        assert {key: nc[key]["maximum"] for key in NC_M_CAPS} == NC_M_CAPS

    def test_suite_config_over_each_cap_is_2(self, tmp_path, capsys):
        for key, cap in NC_M_CAPS.items():
            path = write_config(tmp_path, {"nc": {key: cap + 1}})
            assert main(["suite", "all", "--config", path]) == 2, key
            out = capsys.readouterr()
            assert f"'nc.{key}'" in out.err and out.out == ""
        at_caps = merge_config({"nc": dict(NC_M_CAPS)})
        assert {key: at_caps["nc"][key] for key in NC_M_CAPS} == NC_M_CAPS

    def test_nc_mobius_over_cap_is_2(self, tmp_path, capsys):
        cap = NC_M_CAPS["mobius_m_max"]
        assert main(["nc", "mobius", "--m", str(cap + 1)]) == 2
        out = capsys.readouterr()
        assert "'nc.mobius_m_max'" in out.err and out.out == ""
        path = write_config(tmp_path, {"nc": {"zeta_m_max": NC_M_CAPS["zeta_m_max"] + 1}})
        assert main(["nc", "mobius", "--m", "2", "--config", path]) == 2
        assert "'nc.zeta_m_max'" in capsys.readouterr().err


class TestWorkBudgets:
    """The other sections' sizes above their caps are rejected up front (exit
    2, naming the key), each section through the suite config."""

    def test_caps_admit_the_defaults_and_match_the_schema(self):
        jsonschema.validate(merge_config(None), SCHEMA)
        assert gram_size(**DEFAULT_CONFIG["positivity"]) <= GRAM_SIZE_CAP
        assert (f"<= {GRAM_SIZE_CAP} (work budget)"
                in SCHEMA["properties"]["positivity"]["description"])
        at_caps = copy.deepcopy(WORK_CAPS)
        with pytest.raises(ConfigError, match="'spreadable.block.k' and 'spreadable.block.n'"):
            merge_config(at_caps)  # 6 x 8 = 48 rows, above INCREASING_N_MAX
        block = at_caps["spreadable"]["block"]
        block["k"] = INCREASING_N_MAX // block["n"]
        assert merge_config(at_caps)

    def at_and_over_each_cap(self, section, tmp_path, capsys):
        for path, cap in leaf_caps(WORK_CAPS[section], (section,)):
            assert at(merge_config(at_size(path, cap)), path) == cap
            config = write_config(tmp_path, at_size(path, cap + 1))
            assert main(["suite", "all", "--config", config]) == 2, path
            out = capsys.readouterr()
            assert f"'{'.'.join(path)}'" in out.err and out.out == ""

    def test_kernel_sums_over_each_cap_is_2(self, tmp_path, capsys):
        self.at_and_over_each_cap("kernel_sums", tmp_path, capsys)

    def test_sweep_sizes_at_and_over_each_cap(self, tmp_path, capsys):
        for section in ("nc", "roundtrip", "relations", "extension"):
            self.at_and_over_each_cap(section, tmp_path, capsys)
        assert main(["nc", "enumerate", "--m", str(WORK_CAPS["nc"]["m_max"] + 1)]) == 2
        assert "'nc.m_max'" in capsys.readouterr().err

    def test_invariance_word_lengths_over_each_cap_are_2(self, tmp_path, capsys):
        for section in ("exchangeable", "spreadable", "bvalued"):
            self.at_and_over_each_cap(section, tmp_path, capsys)
        over = WORK_CAPS["spreadable"]["max_word_len"] + 1
        path = write_config(tmp_path, {"spreadable": {"max_word_len": over}})
        assert main(["inv", "spreadable", "--config", path]) == 2
        assert "'spreadable.max_word_len'" in capsys.readouterr().err

    def test_psi_over_each_cap_is_2(self, tmp_path, capsys):
        self.at_and_over_each_cap("psi", tmp_path, capsys)
        assert main(["wg", "psi", "--k", str(WORK_CAPS["psi"]["k_max"] + 1)]) == 2
        assert "'psi.k_max'" in capsys.readouterr().err

    def test_reconstruction_over_each_cap_is_2(self, tmp_path, capsys):
        self.at_and_over_each_cap("reconstruction", tmp_path, capsys)
        over = WORK_CAPS["reconstruction"]["unit_n_max"] + 1
        path = write_config(tmp_path, {"reconstruction": {"unit_n_max": over}})
        assert main(["wg", "reconstruct", "--config", path]) == 2
        assert "'reconstruction.unit_n_max'" in capsys.readouterr().err

    def test_positivity_over_each_cap_is_2(self, tmp_path, capsys):
        self.at_and_over_each_cap("positivity", tmp_path, capsys)
        n = 1  # a Gram matrix over the cap with max_len at its default
        while gram_size(2, n + 1, 2) <= GRAM_SIZE_CAP:
            n += 1
        merge_config({"positivity": {"n": n}})
        path = write_config(tmp_path, {"positivity": {"n": n + 1}})
        assert main(["suite", "all", "--config", path]) == 2
        out = capsys.readouterr()
        assert "'positivity.n'" in out.err and "Gram" in out.err and out.out == ""
        with pytest.raises(ConfigError):
            merge_config({"positivity": {"k": GRAM_SIZE_CAP, "n": 1, "max_len": 2}})
        assert gram_size(2, 2, 2) == 1 + 4 + 16


class TestDirectCallBudgets:
    """The checks behind the capped config keys refuse sizes above the same
    caps when called directly: each size at its cap runs (on the smallest
    other sizes), one above raises ValueError naming it before any work."""

    # (a dotted config key, the direct call whose size it bounds, its message
    # at 3 over a budget of 2)
    SHARED = [
        ("nc.m_max", lambda m: MobiusCache().nc(m), "m=3 exceeds enumeration limit 2"),
        ("roundtrip.scalar_m_max", lambda m: moment_cumulant_roundtrip(
            semicircular_law(), m, tolerance=0, cache=MobiusCache()), "m <= 2"),
        ("roundtrip.matrix_m_max", lambda m: moment_cumulant_roundtrip(
            random_matrix_law(2, 2, 1), m, tolerance=1e-9, cache=MobiusCache()), "m <= 2"),
        ("kernel_sums.n_max", lambda k: check_kernel_sums(
            permutation_rep(tuple(range(1, k + 1))), 1, tolerance=0, cache=MobiusCache()),
         "k <= 2"),
        ("kernel_sums.quantum_m_max", lambda m: check_kernel_sums(
            permutation_rep((1,)), m, tolerance=0, cache=MobiusCache()), "max_len <= 2"),
        ("psi.k_max", lambda k: oracle_equivalence_sweep(k, 1, 1, MobiusCache()), "k_max <= 2"),
        ("psi.n_max", lambda n: oracle_equivalence_sweep(1, n, 1, MobiusCache()), "n_max <= 2"),
        ("psi.m_max", lambda m: oracle_equivalence_sweep(1, 1, m, MobiusCache()), "m_max <= 2"),
        ("positivity.max_len", lambda length: state_positivity_evidence(
            1, 1, length, 1e-10, MobiusCache()), "max_len <= 2"),
    ]

    @pytest.mark.parametrize("key, call, message", SHARED, ids=[key for key, _, _ in SHARED])
    def test_one_schema_maximum_bounds_the_config_and_the_direct_call(
            self, monkeypatch, key, call, message):
        """Lowering the schema maximum of a key lowers both budgets at once:
        merge_config refuses the next value, naming the key, and the direct
        call raises ValueError at it."""
        monkeypatch.setitem(schema_node(key), "maximum", 2)
        section, leaf = key.split(".")
        assert merge_config({section: {leaf: 2}})[section][leaf] == 2
        with pytest.raises(ConfigError, match=f"'{key}' must be <= 2 \\(work budget\\), got 3"):
            merge_config({section: {leaf: 3}})
        call(2)
        with pytest.raises(ValueError, match=message):
            call(3)

    def test_kernel_sums_at_and_over_the_caps(self):
        k_cap, len_cap = budget("kernel_sums.n_max"), budget("kernel_sums.quantum_m_max")
        cache = MobiusCache()
        assert check_kernel_sums(permutation_rep((1,)), len_cap, tolerance=0, cache=cache).passed
        assert check_kernel_sums(permutation_rep(tuple(range(1, k_cap + 1))), 1,
                                 tolerance=0, cache=cache).passed
        with pytest.raises(ValueError, match=f"max_len <= {len_cap}"):
            check_kernel_sums(permutation_rep((1,)), len_cap + 1, tolerance=0, cache=cache)
        with pytest.raises(ValueError, match=f"k <= {k_cap}"):
            check_kernel_sums(permutation_rep(tuple(range(1, k_cap + 2))), 1, tolerance=0,
                              cache=cache)

    def test_oracle_sweep_at_and_over_the_caps(self):
        for key in ("k_max", "n_max", "m_max"):
            cap = budget(f"psi.{key}")
            sizes = {"k_max": 1, "n_max": 1, "m_max": 1, key: cap}
            assert oracle_equivalence_sweep(**sizes).passed, key
            sizes[key] += 1
            with pytest.raises(ValueError, match=f"{key} <= {cap}"):
                oracle_equivalence_sweep(**sizes)

    def test_positivity_at_and_over_the_caps(self, monkeypatch):
        len_cap, tol, cache = budget("positivity.max_len"), 1e-10, MobiusCache()
        assert state_positivity_evidence(1, 1, len_cap, tol, cache).params["gram_size"] \
            == len_cap + 1
        with pytest.raises(ValueError, match=f"max_len <= {len_cap}"):
            state_positivity_evidence(1, 1, len_cap + 1, tol, cache)
        # the Gram side at its cap takes 19 s, so the cap is lowered to a small side
        monkeypatch.setattr(weingarten, "GRAM_SIZE_CAP", gram_size(2, 1, 2))
        assert state_positivity_evidence(2, 1, 2, tol, cache).passed
        with pytest.raises(ValueError, match=f"gram_size <= {gram_size(2, 1, 2)}"):
            state_positivity_evidence(3, 1, 2, tol, cache)


    def test_roundtrip_at_and_over_the_cap(self, monkeypatch):
        # m = 10 raises before the law is read
        cache = MobiusCache()
        cap = budget("roundtrip.matrix_m_max")  # a law that is no ScalarLaw reads it
        with pytest.raises(ValueError, match=f"m <= {cap} \\(work budget\\)"):
            moment_cumulant_roundtrip(object(), cap + 1, tolerance=0, cache=cache)
        # m = 9, the shipped cap, takes seconds, so both caps are lowered to 3
        for kind in ("scalar", "matrix"):
            monkeypatch.setitem(schema_node(f"roundtrip.{kind}_m_max"), "maximum", 3)
        assert moment_cumulant_roundtrip(semicircular_law(), 3, tolerance=0, cache=cache)
        with pytest.raises(ValueError, match="m <= 3"):
            moment_cumulant_roundtrip(object(), 4, tolerance=0, cache=cache)

    def test_magic_unitary_at_and_over_the_cap(self, monkeypatch):
        monkeypatch.setitem(MAGIC_CAPS, "n", 3)
        assert check_magic_unitary(permutation_rep((3, 1, 2))).passed
        with pytest.raises(ValueError, match="n <= 3"):
            check_magic_unitary(permutation_rep((1, 2, 3, 4)))

    def test_every_rep_form_over_the_magic_cap_is_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "rep.json"
        path.write_text(rep_to_json(permutation_rep((2, 1, 3))))
        for cap, spec in ((2, "permutation:2,1,3"), (2, str(path)), (3, "extended:theta=0.7"),
                          (1, "projection:theta=0.7")):
            monkeypatch.setitem(MAGIC_CAPS, "n", cap)
            assert main(["qperm", "magic", "--rep", spec]) == 2, spec
            out = capsys.readouterr()
            assert out.out == "" and f"n <= {cap} (work budget)" in out.err, spec
            monkeypatch.setitem(MAGIC_CAPS, "n", cap + 1)
            assert main(["qperm", "magic", "--rep", spec]) == 0, spec
            capsys.readouterr()

    def test_spec_over_the_shipped_magic_cap_is_2(self, capsys):
        n = MAGIC_CAPS["n"] + 1
        spec = "permutation:" + ",".join(map(str, range(1, n + 1)))
        assert main(["qperm", "magic", "--rep", spec]) == 2
        assert f"n <= {MAGIC_CAPS['n']} (work budget), got {n}" in capsys.readouterr().err


class TestNumericalFailures:
    def test_inv_nan_generators_give_error_report(self):
        # a config file cannot carry a NaN theta (next test), so the config
        # is built around it
        for section in ("exchangeable", "spreadable"):
            config = copy.deepcopy(DEFAULT_CONFIG)
            config[section]["theta"] = float("nan")
            reports = run_section(section, config, MobiusCache())
            error = next(r for r in reports if r.check_name == f"{section}_suite")
            assert error.status == "error" and error.params["section"] == section

    def test_inv_nan_theta_in_a_config_file_is_2(self, tmp_path, capsys):
        for section in ("exchangeable", "spreadable"):
            path = write_config(tmp_path, {section: {"theta": float("nan")}})
            assert main(["inv", section, "--config", path]) == 2
            out = capsys.readouterr()
            assert out.out == "" and f"'{section}.theta' must be finite" in out.err

    def test_wg_numerical_failure_gives_error_report(self, capsys, monkeypatch):
        import numpy as np

        from qspread import suites

        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(suites, "state_positivity_evidence", diverge)
        assert main(["wg", "psi", "--k", "1", "--n", "1", "--mmax", "1"]) == 1
        (report,) = read_reports(capsys)
        assert report["check_name"] == "psi_suite" and report["status"] == "error"
        assert "did not converge" in report["params"]["error"]

    def test_short_independent_moment_list_names_its_index(self, tmp_path, capsys):
        # the default words reach order 3; a list up to order 2 is too short
        path = write_config(tmp_path, {"law": {"kind": "independent",
                                               "moments": {"1": [1, 0, 1], "2": [1, 0, 1]}}})
        assert main(["inv", "exchangeable", "--config", path]) == 1
        (report,) = read_reports(capsys)
        assert report["check_name"] == "exchangeable_suite" and report["status"] == "error"
        assert report["params"]["error"] == (
            "moment list for index 1 knows moments up to order 2, needs 3")


class TestConfigEnvVar:
    def test_env_var_supplies_default(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, {"nc": {"m_max": 3}})
        monkeypatch.setenv("QSPREAD_CONFIG", config)
        assert main(["nc", "enumerate", "--m", "3"]) == 0
        (report,) = read_reports(capsys)
        assert report["params"]["m_max"] == 3


class TestShippedConfigs:
    def docs_path(self, name):
        from pathlib import Path

        return Path(__file__).resolve().parent.parent / "docs" / "examples" / name

    def test_default_json_matches_builtin_defaults(self):
        shipped = json.loads(self.docs_path("default.json").read_text())
        assert shipped == DEFAULT_CONFIG

    def test_matrix_law_json_passes(self, capsys):
        # the S_3 checks pass at the section tolerance with a roundoff-sized
        # residual, which their rollup (tolerance 0) must not turn into a failure
        assert main(["suite", "all", "--config", str(self.docs_path("matrix_law.json"))]) == 0
        reports = {r["check_name"]: r for r in read_reports(capsys)}
        rollup = reports["exchangeable_permutation_reps"]
        assert rollup["status"] == "pass" and rollup["params"]["law"] == "matrix"
        assert 0 < rollup["max_residual"] <= DEFAULT_CONFIG["tolerances"]["exchangeable"]

    def test_broken_json_is_detected(self, capsys):
        assert main(["inv", "exchangeable", "--config",
                     str(self.docs_path("broken.json"))]) == 1
        reports = read_reports(capsys)
        failing = [r for r in reports if r["status"] == "fail"]
        assert failing and all(r["witness"] for r in failing)
        control = next(r for r in reports
                       if r["check_name"] == "exchangeable_negative_control")
        assert control["status"] == "pass"
