"""Config-driven check batteries behind the command-line runner.

Every section yields CheckReports whose params are sufficient to re-run that
check in isolation.  All randomness is derived from the config seed with
fixed offsets, so identical configs give identical report streams (up to
the runtime fields).
"""
from __future__ import annotations

import copy
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .invariance import (
    check_bvalued_spreadable,
    check_exchangeable,
    check_kernel_sums,
    check_spreadable,
    random_insert_words,
    spot_words,
    suite_words,
)
from .linalg import projection_pair
from .moments import (
    FreeSequence,
    IndependentSequence,
    ScalarLaw,
    Word,
    moment_cumulant_roundtrip,
    random_matrix_law,
    random_rational_matrix_law,
    semicircular_law,
)
from .partitions import (
    MobiusCache,
    Partition,
    catalan,
    kernel,
    mobius_column_oracle,
    zeta_inverse_table,
)
from .qis import (
    INCREASING_N_MAX,
    build_block_rep,
    check_increasing_relations,
    classical_point_rep,
    enumerate_increasing,
    extend_to_permutation,
    quantum_extension,
    two_projection_rep,
)
from .qperm import check_magic_unitary, permutation_rep, two_point_rep
from .reports import SCHEMA, CheckReport, ResidualTracker, rollup
from .weingarten import (
    GRAM_SIZE_CAP,
    combinatorial_unit_identity,
    finite_n_reconstruction,
    gram_size,
    oracle_equivalence_sweep,
    state_positivity_evidence,
)


def _collect(node: dict, field: str) -> dict:
    """The ``field`` of every property below ``node`` that has one, nested as
    the config is."""
    out = {}
    for key, sub in node.get("properties", {}).items():
        if field in sub:
            out[key] = sub[field]
        elif inner := _collect(sub, field):
            out[key] = inner
    return out


DEFAULT_CONFIG: dict = _collect(SCHEMA, "default")
# Work budgets no config key holds: the side d*D of the ambient matrices of a
# matrix law, per kind and for the bvalued section's own (measured as the
# schema's descriptions of the law kinds and of bvalued say).
LAW_SIDE_CAPS = {"matrix": 785, "rational_matrix": 21}
BVALUED_SIDE_CAP = 1156


class ConfigError(ValueError):
    """A key or value that its schema (config.schema.json or
    representation.schema.json) does not admit, or work above a stated budget."""


def _law_variant(kind: str) -> dict:
    return next(variant for variant in SCHEMA["properties"]["law"]["oneOf"]
                if variant["properties"]["kind"]["const"] == kind)


# The JSON types of each Python type that json reads, where a bool is no number.
_TYPES = {dict: {"object"}, list: {"array"}, bool: {"boolean"}, int: {"integer", "number"},
          float: {"number"}, type(None): {"null"}}
# Beyond it no number is finite: json reads 1e400 as inf, but 10**400 as an int.
_FLOAT_MAX = sys.float_info.max


def _fits(node: dict):
    """A one-pass test of ``node`` when it is a number type alone, or an array
    type with only minItems, maxItems and such items; else a false value."""
    kinds = node.get("type", ())
    kinds = {kinds} if isinstance(kinds, str) else {*kinds}
    ok = {t for t, names in _TYPES.items() if names & kinds}
    if node.keys() == {"type"} and ok <= {int, float}:
        return lambda x: type(x) in ok and -_FLOAT_MAX <= x <= _FLOAT_MAX
    inner = node.keys() - {"minItems", "maxItems"} == {"type", "items"} and _fits(node["items"])
    low, high = node.get("minItems", 0), node.get("maxItems", math.inf)
    return inner and ok == {list} and (
        lambda x: type(x) is list and low <= len(x) <= high and all(map(inner, x)))


def check_schema(node: dict, value, where: str) -> None:
    """Raise ConfigError naming the dotted key ``where`` unless ``value``
    satisfies the schema ``node``, in the part of JSON Schema that the
    package's two schemas use, where a float is never an integer and a
    number must be finite: off an integer key, an int no float holds is not."""
    kinds = node.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and _TYPES.get(type(value), set()).isdisjoint(kinds):
        raise ConfigError(f"key {where!r} must be {' or '.join(kinds)}, got {value!r}")
    if (type(value) in (int, float) and "integer" not in kinds
            and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise ConfigError(f"key {where!r} must be finite, got {value!r}")
    if "enum" in node and value not in node["enum"]:
        raise ConfigError(f"key {where!r} must be one of "
                          f"{', '.join(node['enum'])}, got {value!r}")
    if "minimum" in node and value < node["minimum"]:
        raise ConfigError(f"key '{where}' must be >= {node['minimum']}, got {value}")
    if "maximum" in node and value > node["maximum"]:
        raise ConfigError(f"key '{where}' must be <= {node['maximum']} "
                          f"(work budget), got {value}")
    if isinstance(value, list):
        low, high = node.get("minItems", 0), node.get("maxItems", math.inf)
        if not low <= len(value) <= high:
            raise ConfigError(f"key {where!r} must have {low} to {high} items, got {len(value)}")
        fits = _fits(node["items"]) if "items" in node else None
        for index, item in enumerate(value if "items" in node else ()):
            if not (fits and fits(item)):  # walked only where the one-pass test fails
                check_schema(node["items"], item, f"{where}.{index}")
    if isinstance(value, dict):
        prefix = f"{where}." if where else ""
        if missing := [repr(prefix + key) for key in node.get("required", ()) if key not in value]:
            raise ConfigError(f"missing key(s) {', '.join(missing)}")
        for key, item in value.items():
            sub = node.get("properties", {}).get(key, node.get("additionalProperties", True))
            if sub is False:
                raise ConfigError(f"unknown key {prefix + key!r}")
            if sub is not True:
                check_schema(sub, item, prefix + key)
    if "oneOf" in node:  # the law, checked against the variant its kind names
        check_schema(_law_variant(value["kind"]), value, where)


def _merge(base, over):
    """``over`` written over ``base``, key by key where both are objects."""
    if isinstance(base, dict) and isinstance(over, dict):
        return {**base, **{key: _merge(base.get(key), value) for key, value in over.items()}}
    return over


def _law_with_defaults(law: dict) -> dict:
    """``law`` with each key its kind's variant gives a default, where left out."""
    return {**_collect(_law_variant(law["kind"]), "default"), **law}


def _moment(value, where: str):
    """A moment entry: a finite float as given, an int or a p/q string as a Fraction."""
    if isinstance(value, float) and math.isfinite(value):
        return value
    try:
        if not isinstance(value, (bool, float)):
            return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"config key {where!r} must hold integers, finite numbers or "
                      f"fraction strings, got {value!r}")


def _moment_lists(law: dict) -> dict:
    """The moment lists of a law, read by ``_moment``: scalar_moments' under
    None, independent's under each index, none for other kinds; raises
    ConfigError at a list not starting with 1 or not under an index >= 1."""
    given = {None: law["moments"]} if law["kind"] == "scalar_moments" else law.get("moments", {})
    lists = {}
    for index, moments in given.items():
        where = "law.moments" if index is None else f"law.moments.{index}"
        if index is not None and not (index.isascii() and index.isdecimal() and index[0] != "0"):
            raise ConfigError(f"config key {where!r} must be a positive integer index")
        lists[index] = [_moment(v, where) for v in moments] if isinstance(moments, list) else []
        if lists[index][:1] != [1]:
            raise ConfigError(f"config key {where!r} must be a list starting with 1, "
                              f"got {moments!r}")
    return lists


def merge_config(overrides: dict | None) -> dict:
    """DEFAULT_CONFIG with ``overrides`` merged in, key by key, as a copy
    that shares no dict with DEFAULT_CONFIG.

    The result must satisfy config.schema.json (see ``check_schema``), and then
    the rules the schema cannot state: the law's moment lists, the matrix
    sides d*D within LAW_SIDE_CAPS and BVALUED_SIDE_CAP, each block family
    fitting its checks, and the Gram size within GRAM_SIZE_CAP.  ``law`` is
    merged as given, not filled in with its kind's defaults.  Raises
    ConfigError naming the dotted path of the first offending key.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("the config must be a JSON object")
    merged = _merge(copy.deepcopy(DEFAULT_CONFIG), overrides)
    check_schema(SCHEMA, merged, "")
    law = _law_with_defaults(merged["law"])
    _moment_lists(law)
    for path, sizes, cap in (("law", law, LAW_SIDE_CAPS.get(law["kind"])),
                             ("bvalued", merged["bvalued"], BVALUED_SIDE_CAP)):
        if cap is not None and sizes["d"] * sizes["D"] > cap:
            raise ConfigError(f"config keys '{path}.d' and '{path}.D' give matrices of side "
                              f"{sizes['d'] * sizes['D']}, must be <= {cap} (work budget)")
    for section in ("relations", "spreadable"):
        block = merged[section]["block"]
        if block["dim"] < block["n"]:
            raise ConfigError(f"config key '{section}.block.dim' must be >= "
                              f"'{section}.block.n' = {block['n']}, got {block['dim']}")
    block = merged["spreadable"]["block"]
    if block["k"] * block["n"] > INCREASING_N_MAX:
        raise ConfigError(f"config keys 'spreadable.block.k' and 'spreadable.block.n' give "
                          f"{block['k'] * block['n']} rows, must be <= {INCREASING_N_MAX}")
    size = gram_size(**merged["positivity"])
    if size > GRAM_SIZE_CAP:
        raise ConfigError(f"config keys 'positivity.k', 'positivity.n' and "
                          f"'positivity.max_len' give a Gram matrix of size {size}, "
                          f"must be <= {GRAM_SIZE_CAP} (work budget)")
    return merged


def build_sequence(spec: dict, seed: int, cache: MobiusCache):
    """The sequence model of a ``law`` section that ``merge_config`` checked:
    the broken model for kind "independent", else the free i.i.d. sequence
    of the kind's law."""
    kind = spec["kind"]
    if kind == "independent":
        return IndependentSequence({int(i): ms for i, ms in _moment_lists(spec).items()})
    if kind == "semicircular":
        law = semicircular_law()
    elif kind == "scalar_moments":
        law = ScalarLaw(_moment_lists(spec)[None])
    else:
        make = random_matrix_law if kind == "matrix" else random_rational_matrix_law
        sizes = _law_with_defaults(spec)
        law = make(sizes["d"], sizes["D"], seed)
    return FreeSequence(law, cache)


def catalan_by_recurrence(m: int) -> int:
    table = [1]
    for size in range(1, m + 1):
        table.append(sum(table[i] * table[size - 1 - i] for i in range(size)))
    return table[m]


def nc_count_checks(config: dict, cache: MobiusCache):
    m_max = config["nc"]["m_max"]
    tracker = ResidualTracker("nc_counts", 0, params={"m_max": m_max}, seed=config["seed"])
    counts = {}
    for m in range(0, m_max + 1):
        got = cache.count(m)
        expected = catalan_by_recurrence(m)
        counts[str(m)] = got
        tracker.add(("count", m), abs(got - expected))
        tracker.add(("closed-form", m), abs(got - catalan(m)))
    yield tracker.report(extra_params={"counts": counts})


def mobius_checks(config: dict, cache: MobiusCache):
    cfg = config["nc"]
    seed = config["seed"]

    tracker = ResidualTracker(
        "mobius_identity", 0, params={"m_max": cfg["mobius_m_max"]}, seed=seed
    )
    for m in range(0, cfg["mobius_m_max"] + 1):
        order, elems = cache.order(m), cache.nc(m)
        for i, p in enumerate(elems):
            at = np.flatnonzero(order[:, i]).tolist()  # the down-set of p, in nc order
            for a, row in zip(at, order[np.ix_(at, at)]):
                total = sum(cache.mobius(elems[a], elems[at[b]])
                            for b in np.flatnonzero(row).tolist())
                tracker.add(("pair", m, elems[a], p), abs(total - (1 if a == i else 0)))
    yield tracker.report()

    tracker = ResidualTracker(
        "mobius_zeta_table", 0, params={"m_max": cfg["zeta_m_max"]}, seed=seed
    )
    for m in range(1, cfg["zeta_m_max"] + 1):
        for (s, p), value in zeta_inverse_table(m, cache).items():
            tracker.add(("entry", m, s, p), abs(value - cache.mobius(s, p)))
    yield tracker.report()

    tracker = ResidualTracker(
        "mobius_column_oracle", 0, params={"m_max": cfg["column_m_max"]}, seed=seed
    )
    for m in range(1, cfg["column_m_max"] + 1):
        column = mobius_column_oracle(m, cache)
        bottom, top = Partition.singletons(m), Partition.full(m)
        value = cache.mobius(bottom, top)
        tracker.add(("full-interval", m), abs(column[bottom] - value))
        tracker.add(
            ("catalan-sign", m), abs(value - (-1) ** (m - 1) * catalan(m - 1))
        )
    yield tracker.report()


def roundtrip_checks(config: dict, cache: MobiusCache):
    cfg = config["roundtrip"]
    tol = config["tolerances"]["roundtrip"]
    seed = config["seed"]

    tracker = ResidualTracker(
        "moment_cumulant_roundtrip_scalar", 0,
        params={"m_max": cfg["scalar_m_max"]}, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    for m in range(1, cfg["scalar_m_max"] + 1):
        moments = [Fraction(1)] + [
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            for _ in range(2 * m + 2)
        ]
        ok = moment_cumulant_roundtrip(ScalarLaw(moments), m, seed=seed + m, tolerance=0,
                                       cache=cache)
        tracker.add(("scalar", m), 0 if ok else 1)
    yield tracker.report()

    tracker = ResidualTracker(
        "moment_cumulant_roundtrip_matrix", tol,
        params={"m_max": cfg["matrix_m_max"], "d": 2, "D": 2}, seed=seed,
    )
    for m in range(1, cfg["matrix_m_max"] + 1):
        law = random_matrix_law(2, 2, seed + 10 + m)
        ok = moment_cumulant_roundtrip(law, m, seed=seed + m, tolerance=tol, cache=cache)
        tracker.add(("matrix", m), 0 if ok else 1)
    yield tracker.report()


def _angles(count: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(t) for t in rng.uniform(0.05, np.pi / 2 - 0.05, size=count)]


def _points(n_max: int):
    """(k, n, l) for every increasing sequence l of k values in 1..n, n <= ``n_max``."""
    return ((k, n, l) for n in range(1, n_max + 1) for k in range(1, n + 1)
            for l in enumerate_increasing(k, n))


def relations_checks(config: dict, cache: MobiusCache):
    cfg = config["relations"]
    tol = config["tolerances"]["relations"]
    seed = config["seed"]

    yield rollup("increasing_relations_projection_family", tol,
                 {"k": 2, "n": 4, "theta_count": cfg["theta_count"]}, seed,
                 ((("theta", theta),
                   check_increasing_relations(two_projection_rep(theta), tolerance=tol))
                  for theta in _angles(cfg["theta_count"], seed + 2)))
    yield rollup("increasing_relations_classical_points", 0, {"n_max": cfg["classical_n_max"]},
                 seed, ((("point", k, n, list(l.values)),
                         check_increasing_relations(classical_point_rep(l), tolerance=0))
                        for k, n, l in _points(cfg["classical_n_max"])))

    block = cfg["block"]
    rep = build_block_rep(block["k"], block["n"], block["dim"], seed + 3)
    yield (check_increasing_relations(rep, tolerance=tol, seed=seed + 3)
           .renamed("increasing_relations_block_family", **block))


def extension_checks(config: dict, cache: MobiusCache):
    cfg = config["extension"]
    magic_tol = config["tolerances"]["magic"]
    seed = config["seed"]

    tracker = ResidualTracker("extension_classical_points", 0,
                              params={"n_max": cfg["classical_n_max"]}, seed=seed)
    for k, n, l in _points(cfg["classical_n_max"]):
        extended = quantum_extension(classical_point_rep(l), tolerance=0)
        expected = permutation_rep(extend_to_permutation(l))
        gap = max(abs(extended.gens[key][0, 0] - expected.gens[key][0, 0])
                  for key in expected.gens)
        tracker.add(("point", k, n, list(l.values)), gap)
    yield tracker.report()

    yield rollup("extension_magic_unitary", magic_tol,
                 {"k": 2, "n": 4, "theta_count": cfg["theta_count"]}, seed,
                 ((("theta", theta), check_magic_unitary(
                     quantum_extension(two_projection_rep(theta)), tolerance=magic_tol))
                  for theta in _angles(cfg["theta_count"], seed + 4)))


def kernel_sum_checks(config: dict, cache: MobiusCache):
    cfg = config["kernel_sums"]
    tol = config["tolerances"]["kernel_sums"]
    seed = config["seed"]

    yield rollup("kernel_sums_permutation_reps", 0,
                 {"n_max": cfg["n_max"], "m_max": cfg["m_max"]}, seed,
                 ((("perm", list(perm)), check_kernel_sums(
                     permutation_rep(perm), cfg["m_max"], tolerance=0, cache=cache))
                  for n in range(1, cfg["n_max"] + 1)
                  for perm in itertools.permutations(range(1, n + 1))))

    extended = quantum_extension(two_projection_rep(0.6))
    yield check_kernel_sums(extended, cfg["quantum_m_max"], tolerance=tol, cache=cache,
                            seed=seed).renamed("kernel_sums_extended_rep")


def _broken_sequence(n: int) -> IndependentSequence:
    """Independent but deliberately non-identically-distributed scalars."""
    return IndependentSequence(
        {i: [1, i, 2 * i**2, 4 * i**3, 8 * i**4, 16 * i**5] for i in range(1, n + 1)}
    )


def _negative_control(name: str, check, rep, n: int, tolerance, seed: int) -> CheckReport:
    """A meta-check that passes exactly when ``check`` of ``rep`` failed with a
    witness on the broken law of ``n`` indices: the checker must be able to
    reject a broken law."""
    inner = check(_broken_sequence(n), rep, suite_words(semicircular_law(), 2, 2),
                  tolerance=tolerance, seed=seed)
    detected = (not inner.passed) and inner.witness is not None
    return CheckReport(
        check_name=name,
        params={
            "expectation": "inner check must fail on the broken law",
            "inner_check": inner.check_name,
            "inner_residual": inner.max_residual
            if isinstance(inner.max_residual, str) else float(inner.max_residual),
            "inner_witness": inner.witness,
            "tolerance": 0.0,
        },
        status="pass" if detected else "fail",
        max_residual=0.0 if detected else 1.0,
        witness=None if detected else ["negative control not detected"],
        seed=seed,
    )


def exchangeable_checks(config: dict, cache: MobiusCache):
    cfg = config["exchangeable"]
    tol = config["tolerances"]["exchangeable"]
    seed = config["seed"]
    seq = build_sequence(config["law"], seed + 5, cache)

    words2 = suite_words(seq, max_targets=2, max_len=cfg["max_word_len"])
    if cfg["spot_length"] > cfg["max_word_len"]:
        words2 += spot_words(seq, 2, cfg["spot_length"], seed + 17)
    rep = two_point_rep(projection_pair(cfg["theta"])[1])
    yield check_exchangeable(seq, rep, words2, tolerance=tol, seed=seed).renamed(
        "exchangeable_projection_rep", theta=cfg["theta"],
        law=config["law"]["kind"])

    words3 = suite_words(seq, max_targets=3, max_len=min(cfg["max_word_len"], 3))
    yield rollup("exchangeable_permutation_reps", 0,
                 {"n": 3, "max_word_len": min(cfg["max_word_len"], 3),
                  "law": config["law"]["kind"]}, seed,
                 ((("perm", list(perm)), check_exchangeable(
                     seq, permutation_rep(perm), words3, tolerance=tol, seed=seed))
                  for perm in itertools.permutations((1, 2, 3))))

    if cfg["include_extended"]:
        extended = quantum_extension(two_projection_rep(cfg["theta"]))
        words4 = suite_words(seq, max_targets=4, max_len=cfg["extended_word_len"])
        yield (check_exchangeable(seq, extended, words4, tolerance=tol, seed=seed)
               .renamed("exchangeable_extended_rep", theta=cfg["theta"]))

    yield _negative_control("exchangeable_negative_control", check_exchangeable, rep, 2, tol, seed)


def spreadable_checks(config: dict, cache: MobiusCache):
    cfg = config["spreadable"]
    tol = config["tolerances"]["spreadable"]
    seed = config["seed"]
    seq = build_sequence(config["law"], seed + 6, cache)

    words = suite_words(seq, max_targets=2, max_len=cfg["max_word_len"])
    yield (check_spreadable(seq, two_projection_rep(cfg["theta"]), words, tolerance=tol,
                            seed=seed)
           .renamed("spreadable_projection_family", theta=cfg["theta"]))

    block = cfg["block"]
    rep = build_block_rep(block["k"], block["n"], block["dim"], seed + 7)
    words_k = suite_words(seq, max_targets=block["k"],
                          max_len=min(cfg["max_word_len"], 3))
    yield (check_spreadable(seq, rep, words_k, tolerance=tol, seed=seed + 7)
           .renamed("spreadable_block_family", **block))

    pulled = quantum_extension(two_projection_rep(cfg["theta"]))
    yield check_exchangeable(
        seq, pulled, suite_words(seq, 2, min(cfg["max_word_len"], 3)),
        tolerance=tol, seed=seed,
    ).renamed("spreadable_via_extension_pullback", theta=cfg["theta"])

    yield _negative_control("spreadable_negative_control", check_spreadable,
                            two_projection_rep(cfg["theta"]), 4, tol, seed)


def bvalued_checks(config: dict, cache: MobiusCache):
    cfg = config["bvalued"]
    tol = config["tolerances"]["bvalued"]
    seed = config["seed"]
    law = random_matrix_law(cfg["d"], cfg["D"], seed + 8)
    seq = FreeSequence(law, cache)
    words = random_insert_words(law, max_targets=2, max_len=cfg["max_word_len"],
                                seed=seed + 9)
    words += [Word.plain(law, (1,) * m) for m in range(1, cfg["max_word_len"] + 1)]
    yield (check_bvalued_spreadable(seq, two_projection_rep(cfg["theta"]), words, tolerance=tol,
                                    seed=seed)
           .renamed("bvalued_spreadable_matrix_law", d=cfg["d"], D=cfg["D"]))


def psi_checks(config: dict, cache: MobiusCache):
    cfg = config["psi"]
    pos = config["positivity"]
    yield oracle_equivalence_sweep(cfg["k_max"], cfg["n_max"], cfg["m_max"], cache,
                                   seed=config["seed"])
    yield state_positivity_evidence(pos["k"], pos["n"], pos["max_len"],
                                    tolerance=config["tolerances"]["positivity"],
                                    cache=cache, seed=config["seed"])


def _kernel_pattern_tuples(m: int, cache: MobiusCache) -> list[tuple[int, ...]]:
    """One canonical target tuple per set-partition kernel of {1..m}: the
    RGS of each partition of ``cache.all(m)``, counted from 1, in
    lexicographic order."""
    return [tuple(label + 1 for label in p.rgs) for p in cache.all(m)]


def reconstruction_checks(config: dict, cache: MobiusCache):
    cfg = config["reconstruction"]
    seed = config["seed"]

    tracker = ResidualTracker(
        "combinatorial_unit_identity", 0,
        params={"m_max": cfg["unit_m_max"], "n_max": cfg["unit_n_max"]}, seed=seed,
    )
    for m in range(1, cfg["unit_m_max"] + 1):
        for cols in _kernel_pattern_tuples(m, cache):
            for tau in cache.below(kernel(cols)):
                for n in range(1, cfg["unit_n_max"] + 1):
                    value = combinatorial_unit_identity(tau, cols, n, cache)
                    tracker.add(
                        ("unit", [list(b) for b in tau.blocks], list(cols), n),
                        abs(value - 1),
                    )
    yield tracker.report()

    for label, law in (
        ("scalar", semicircular_law()),
        ("matrix", random_rational_matrix_law(2, 2, seed + 10)),
    ):
        seq = FreeSequence(law, cache)
        tracker = ResidualTracker(
            f"finite_reconstruction_{label}", 0,
            params={"m_max": cfg["m_max"], "n_max": cfg["n_max"], "law": label},
            seed=seed,
        )
        for m in range(1, cfg["m_max"] + 1):
            for cols in _kernel_pattern_tuples(m, cache):
                word = Word.plain(law, cols)
                direct = seq.moment(word)
                for n in range(1, cfg["n_max"] + 1):
                    got = finite_n_reconstruction(seq, word, n, cache)
                    tracker.add(("reconstruction", list(cols), n), law.residual(got, direct))
        yield tracker.report()


SUITE_SECTIONS = (
    ("nc", nc_count_checks),
    ("mobius", mobius_checks),
    ("roundtrip", roundtrip_checks),
    ("relations", relations_checks),
    ("extension", extension_checks),
    ("kernel_sums", kernel_sum_checks),
    ("exchangeable", exchangeable_checks),
    ("spreadable", spreadable_checks),
    ("bvalued", bvalued_checks),
    ("psi", psi_checks),
    ("reconstruction", reconstruction_checks),
)


def run_section(name: str, config: dict, cache: MobiusCache) -> list[CheckReport]:
    for section, runner in SUITE_SECTIONS:
        if section == name:
            try:
                return list(runner(config, cache))
            except Exception as exc:  # the section's one report, whatever it yielded before
                return [CheckReport(f"{name}_suite", {"section": name, "error": str(exc)},
                                    status="error", max_residual=None, seed=config.get("seed"))]
    raise ValueError(f"unknown suite section {name!r}")


def run_all(config: dict) -> list[CheckReport]:
    cache = MobiusCache()
    reports: list[CheckReport] = []
    for section, _ in SUITE_SECTIONS:
        reports.extend(run_section(section, config, cache))
    # check names are unique in a stream, and runtime_ms stays out of the key,
    # so identical configs give identically ordered streams
    return sorted(reports, key=lambda r: r.check_name)
