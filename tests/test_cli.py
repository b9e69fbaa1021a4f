import json
import re
import time
from pathlib import Path

import pytest

from matchroid import CyclicGroup, IntegerWindow, ProductGroup, Rectification, verify
from matchroid import verifiers
from matchroid.cli import parse_bounds, run
from matchroid.verifiers import VERIFIERS
from conftest import INSTANCE_KEYS, SCOPE_KEYS, known_keys, write_instance


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    docs = out.strip().splitlines()
    assert len(docs) == 1, f"expected one JSON document, got: {out!r} err: {err!r}"
    return code, json.loads(docs[0])


def test_match_symmetric_counterexample(capsys, sym_counterexample_file):
    code, doc = invoke_json(
        capsys, "match", "--instance", sym_counterexample_file, "--m", "M", "--n", "M", "--json"
    )
    assert code == 1
    assert doc["matched"] is False
    assert doc["failing_basis"] == [1, 2]


def test_match_positive_exit_zero(capsys, sym_counterexample_file):
    code, doc = invoke_json(
        capsys, "match", "--instance", sym_counterexample_file, "--m", "U", "--n", "U", "--json"
    )
    assert code == 0 and doc["matched"] is True


def test_match_basis_subcommand(capsys, sym_counterexample_file):
    code, doc = invoke_json(
        capsys,
        "match-basis",
        "--instance", sym_counterexample_file,
        "--m", "M", "--n", "M", "--basis", "1,2", "--json",
    )
    assert code == 1 and doc["matched"] is False

    code, doc = invoke_json(
        capsys,
        "match-basis",
        "--instance", sym_counterexample_file,
        "--m", "M", "--n", "M", "--basis", "1,4", "--json",
    )
    assert code == 0 and doc["witness"]["source"] == [1, 4]


def test_group_match_subcommand(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {
            "group": {"kind": "cyclic", "n": 4},
            "subsets": {"A": [0, 2], "B": [1, 2], "C": [1, 3]},
        },
    )
    code, doc = invoke_json(capsys, "group-match", "--instance", path, "--a", "A", "--b", "B", "--json")
    assert code == 1 and doc["matched"] is False

    code, doc = invoke_json(capsys, "group-match", "--instance", path, "--a", "A", "--b", "C", "--json")
    assert code == 0 and len(doc["pairs"]) == 2


def test_classify_subcommand(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {"group": {"kind": "zwindow", "lo": -10, "hi": 10}, "subsets": {"A": [3, 5, 7]}},
    )
    code, doc = invoke_json(capsys, "classify", "--instance", path, "--set", "A", "--json")
    assert code == 0
    assert doc["progression"] == {"a": 3, "x": 2, "k": 3}
    assert doc["chowla"] is True


def test_sumset_subcommand(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {"group": {"kind": "cyclic", "n": 5}, "subsets": {"A": [1, 2], "B": [1, 3]}},
    )
    code, doc = invoke_json(capsys, "sumset", "--instance", path, "--a", "A", "--b", "B", "--json")
    assert code == 0 and doc["sumset"] == [0, 2, 3, 4]

    code, doc = invoke_json(capsys, "sumset", "--instance", path, "--a", "A", "--fold", "2", "--json")
    assert code == 0 and doc["sumset"] == [2, 3, 4]


def test_sumset_overflow_is_input_error(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {"group": {"kind": "zwindow", "lo": -10, "hi": 10}, "subsets": {"A": [8], "B": [8]}},
    )
    code, out, err = invoke(capsys, "sumset", "--instance", path, "--a", "A", "--b", "B", "--json")
    assert code == 2
    assert "window" in err


def test_rado_subcommand(capsys, sym_counterexample_file):
    code, doc = invoke_json(
        capsys,
        "rado",
        "--instance", sym_counterexample_file,
        "--n", "M", "--family", "F1,F2", "--json",
    )
    assert code == 1
    assert doc["violation"] == [0, 1]

    code, doc = invoke_json(
        capsys,
        "rado",
        "--instance", sym_counterexample_file,
        "--n", "U", "--family", "F1,F2", "--json",
    )
    assert code == 0
    assert doc["transversal"] == [4, 3]


def test_rado_exits_3_past_the_violation_scan_cap(capsys, tmp_path):
    n = 20
    path = write_instance(
        tmp_path,
        {
            "group": {"kind": "zwindow", "lo": 0, "hi": 30},
            "matroids": {"N": {"ground": list(range(1, n + 2)), "rep": {"kind": "uniform", "rank": n}}},
            "subsets": {"F": list(range(1, n))},
        },
    )
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "rado", "--instance", path, "--n", "N", "--family", ",".join(["F"] * n), "--json"
    )
    assert code == 3 and out == "" and "budget exceeded" in err
    assert time.perf_counter() - start < 1.0


def test_verify_subcommand_pass(capsys):
    code, doc = invoke_json(capsys, "verify", "sym-group", "--bounds", "g=cyclic:7", "--json")
    assert code == 0
    assert doc["passed"] is True and doc["checked"] == 127


def test_verify_subcommand_negative_verdict(capsys):
    code, doc = invoke_json(
        capsys,
        "verify", "sparse-sym",
        "--bounds", "g=cyclic:11,universe=1-5,sizes=4,ranks=2",
        "--json",
    )
    assert code == 1
    assert doc["passed"] is False
    assert doc["counterexample"]["basis"] == [1, 2]


@pytest.mark.parametrize(
    "theorem, bounds, checked",
    [
        ("asy-1", "g=cyclic:1000000000000000,ranks=1", 252),
        ("rank-criteria", "g=zwindow:0:1000000000000000", 768),
    ],
)
def test_verify_default_universe_of_a_huge_group(capsys, theorem, bounds, checked):
    """The default universe takes the group's first elements without listing the group."""
    code, doc = invoke_json(capsys, "verify", theorem, "--bounds", bounds, "--json")
    assert code == 0
    assert doc["passed"] is True and doc["checked"] == checked


def test_verify_hypothesis_violation_is_usage_error(capsys):
    code, out, err = invoke(capsys, "verify", "lemma-progression", "--bounds", "g=cyclic:6")
    assert code == 2 and "cyclic" in err


def test_verify_instance_without_its_bounds_names_the_missing_one(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {
            "group": {"kind": "cyclic", "n": 11},
            "matroids": {"M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 2}}},
        },
    )
    code, out, err = invoke(
        capsys, "verify", "asy-1", "--instance", path, "--bounds", "m=M", "--json"
    )
    assert code == 2 and out == ""
    assert "missing bound n" in err and "missing group" not in err
    code, out, err = invoke(
        capsys, "verify", "kneser", "--instance", path, "--bounds", "g=cyclic:5", "--json"
    )
    assert code == 2 and "no instance mode" in err


@pytest.mark.parametrize("bounds", ["ranks", "g=cyclic:1"])
def test_verify_malformed_bounds_is_usage_error(capsys, bounds):
    code, out, err = invoke(capsys, "verify", "asy-1", "--bounds", bounds, "--json")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_instance_without_a_compatible_order_is_usage_error(capsys, tmp_path):
    # The order hypothesis of asy-order over Z/101 needs a rectification of
    # E(M) u E(N) u (E(M)+E(N)); for these four elements it is decided absent.
    u = {"ground": [1, 8, 20, 37], "rep": {"kind": "uniform", "rank": 3}}
    path = write_instance(
        tmp_path, {"group": {"kind": "cyclic", "n": 101}, "matroids": {"M": u, "N": u}}
    )
    code, out, err = invoke(
        capsys, "verify", "asy-order", "--instance", path, "--bounds", "m=M,n=N", "--json"
    )
    assert code == 2 and out == "" and "compatible total order" in err


@pytest.mark.parametrize(
    "n, em, en, clause",
    [
        # No rectification: D = {0, 1, 3, 8, 9, 10} has |D+D| = 11 = 2|D| - 1
        # but is no arithmetic progression.
        (11, [1, 3], [8, 9], "compatible total order: "),
        # Rectifiable, but the Freiman-2 maps of D form a 3-dimensional space.
        (101, [63, 85], [29, 42], "compatible total order unique up to reversal: "),
    ],
)
def test_verify_order_hypothesis_is_decided_fast(capsys, tmp_path, n, em, en, clause):
    matroids = {
        name: {"ground": ground, "rep": {"kind": "uniform", "rank": 1}}
        for name, ground in (("M", em), ("N", en))
    }
    path = write_instance(tmp_path, {"group": {"kind": "cyclic", "n": n}, "matroids": matroids})
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "verify", "asy-order", "--instance", path, "--bounds", "m=M,n=N", "--json"
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and clause in err


def test_verify_absent_order_is_hypothesis_exit(capsys, tmp_path):
    # Over Z/7 the domain {0, 2, 3, 4, 5, 6} of E(M) = {0, 6}, E(N) = {3, 5}
    # has too few pairwise sums to be a set of integers.
    path = write_instance(
        tmp_path,
        {
            "group": {"kind": "cyclic", "n": 7},
            "matroids": {
                "M": {"ground": [0, 6], "rep": {"kind": "uniform", "rank": 1}},
                "N": {"ground": [3, 5], "rep": {"kind": "uniform", "rank": 1}},
            },
        },
    )
    code, out, err = invoke(
        capsys, "verify", "asy-order", "--instance", path, "--bounds", "m=M,n=N", "--json"
    )
    assert code == 2 and out == "" and "compatible total order" in err


def test_verify_budget_exit_code(capsys):
    code, out, err = invoke(capsys, "verify", "sym-group", "--bounds", "g=cyclic:17")
    assert code == 3 and "budget" in err.lower()


def test_verify_unknown_theorem(capsys):
    code, out, err = invoke(capsys, "verify", "goldbach")
    assert code == 2


def test_verify_json_is_byte_identical_across_runs(capsys):
    _, first, _ = invoke(capsys, "verify", "rado", "--seed", "9", "--bounds", "count=30", "--json")
    _, second, _ = invoke(capsys, "verify", "rado", "--seed", "9", "--bounds", "count=30", "--json")
    assert first == second


def test_verify_timing_flag_adds_runtime(capsys):
    code, doc = invoke_json(
        capsys, "verify", "sym-group", "--bounds", "g=cyclic:7", "--json", "--timing"
    )
    assert code == 0 and "runtime_ms" in doc


def test_reproduce_subcommand(capsys):
    code, doc = invoke_json(capsys, "reproduce", "sym-counterexample", "--n", "2", "--json")
    assert code == 0 and doc["passed"] is True

    code, out, err = invoke(
        capsys, "reproduce", "sym-counterexample", "--n", "3", "--group", "cyclic:11"
    )
    assert code == 2  # 11 <= 4n wraps sums


def test_enumerate_subcommand(capsys, tmp_path):
    code, doc = invoke_json(
        capsys,
        "enumerate", "--group", "cyclic:11", "--elements", "1,2,3,4", "--rank", "2", "--json",
    )
    assert code == 0 and doc["count"] == 10

    path = write_instance(
        tmp_path,
        {"group": {"kind": "cyclic", "n": 11}, "subsets": {"E": [1, 2, 3]}},
    )
    code, doc = invoke_json(
        capsys, "enumerate", "--instance", path, "--set", "E", "--rank", "3", "--json"
    )
    assert code == 0 and doc["count"] == 1


def test_enumerate_budget(capsys):
    code, out, err = invoke(
        capsys,
        "enumerate", "--group", "zwindow:0:20", "--elements",
        ",".join(str(i) for i in range(1, 13)), "--rank", "6",
    )
    assert code == 3


def test_a_missing_option_is_named(capsys, tmp_path):
    path = write_instance(
        tmp_path, {"group": {"kind": "cyclic", "n": 7}, "subsets": {"A": [1, 2]}}
    )
    cases = [
        (("enumerate", "--group", "cyclic:7", "--rank", "2"), "--elements"),
        (("sumset", "--instance", path, "--a", "A"), "--b"),
        (("enumerate", "--instance", path, "--rank", "1"), "--set"),
    ]
    for argv, option in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: schema-violation at {option}: required "), err
    code, out, err = invoke(capsys, "sumset", "--instance", path, "--a", "A", "--fold", "0")
    assert code == 2 and out == "" and err == "error: fold count must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "rep",
    [
        {"kind": "uniform", "rank": "2"},
        {"kind": "uniform", "rank": 2.5},
        {"kind": "uniform", "rank": True},
        {"kind": "ch", "rank": 2.0, "ch": []},
        {"kind": "partition", "blocks": [[1, 2], [3]], "caps": [1.9, 1]},
    ],
)
def test_instance_ranks_and_caps_must_be_ints(capsys, tmp_path, rep):
    path = write_instance(
        tmp_path,
        {"group": {"kind": "cyclic", "n": 7}, "matroids": {"M": {"ground": [1, 2, 3], "rep": rep}}},
    )
    code, out, err = invoke(capsys, "match", "--instance", path, "--m", "M", "--n", "M")
    assert code == 2 and out == ""
    assert err.startswith("error: invariant-violation at matroids.M.rep: needs an int, not ")


@pytest.mark.parametrize(
    "group, message",
    [
        ({"kind": "zwindow", "lo": False, "hi": True}, "needs an int, not False"),
        ({"kind": "cyclic", "n": 7.0}, "needs an int, not 7.0"),
    ],
)
def test_instance_group_parameters_must_be_ints(capsys, tmp_path, group, message):
    path = write_instance(tmp_path, {"group": group, "subsets": {"A": [0]}})
    code, out, err = invoke(capsys, "classify", "--instance", path, "--set", "A")
    assert code == 2 and out == ""
    assert err == f"error: schema-violation at group: {message}\n"


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"matroids": {"M": {"ground": [1, 2], "rep": {"kind": "bases", "list": 3}}}},
         "matroids.M.rep.list"),
        ({"matroids": {"M": {"ground": [1, 2], "rep": {"kind": "ch", "rank": 2, "ch": 5}}}},
         "matroids.M.rep.ch"),
        ({"matroids": {"M": {
            "ground": [1, 2, 3], "rep": {"kind": "partition", "blocks": [[1, 2], [3]], "caps": 3}
        }}}, "matroids.M.rep.caps"),
        ({"subsets": [[1]]}, "subsets"),
        ({"subsets": []}, "subsets"),
        ({"matroids": [1]}, "matroids"),
    ],
)
def test_instance_fields_of_the_wrong_json_type_are_schema_violations(
    capsys, tmp_path, fields, field
):
    path = write_instance(tmp_path, {"group": {"kind": "cyclic", "n": 7}, **fields})
    code, out, err = invoke(capsys, "match", "--instance", path, "--m", "M", "--n", "M")
    assert code == 2 and out == ""
    assert err.startswith(f"error: schema-violation at {field}: "), err


@pytest.mark.parametrize(
    "bounds, message",
    [
        ("max_rank=0", "bound max_rank: needs an int >= 1, not 0"),
        ("max_ground=1", "bound max_ground: needs an int >= 2, not 1"),
        ("max_rank=2.5", "bound max_rank: needs an int >= 1, not '2.5'"),
    ],
)
def test_rado_size_bounds_have_a_floor(capsys, bounds, message):
    code, out, err = invoke(capsys, "verify", "rado", "--bounds", bounds, "--json")
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("bounds", ["max_rank=6,count=1", "max_rank=12,max_ground=30,count=3"])
def test_rado_refuses_ranks_its_oracle_cannot_decide(capsys, bounds):
    code, out, err = invoke(capsys, "verify", "rado", "--bounds", bounds, "--json")
    rank = parse_bounds(bounds)["max_rank"]
    assert code == 3 and out == ""
    assert err == f"budget exceeded: bound max_rank: brute force refuses rank {rank} > 5\n"


@pytest.mark.parametrize("seed", range(6))
def test_rado_refuses_a_group_without_its_ground_elements(capsys, seed):
    bounds = "g=cyclic:6,max_ground=8,count=1"
    code, out, err = invoke(capsys, "verify", "rado", "--bounds", bounds, "--seed", str(seed))
    assert code == 2 and out == ""
    assert err == "error: group holds 1..max_ground: CyclicGroup(6) lacks 6\n"



@pytest.mark.parametrize(
    "argv, where",
    [
        (("match", "--m", "M", "--n", "M"), "matroids.M.ground[2]"),
        (("group-match", "--a", "A", "--b", "B"), "subsets.A"),
    ],
)
def test_a_non_element_in_the_instance_file_exits_2(capsys, tmp_path, argv, where):
    """Trusted ground sets start after parsing: the file's elements are still checked."""
    bad = argv[0] == "match"
    inst = {
        "group": {"kind": "cyclic", "n": 7},
        "matroids": {"M": {"ground": [1, 2, 9 if bad else 3], "rep": {"kind": "uniform", "rank": 2}}},
        "subsets": {"A": [1, 2 if bad else 9], "B": [2, 3]},
    }
    path = write_instance(tmp_path, inst)
    code, out, err = invoke(capsys, argv[0], "--instance", path, *argv[1:])
    assert code == 2 and out == "" and where in err and "9 is not" in err

@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "sym-counterexample", "--n", "2", "--group", "product:3x3"),
        ("verify", "sym-counterexample", "--bounds", "g=product:3x3"),
        ("verify", "asy-counterexample", "--bounds", "g=product:3x3", "--json"),
    ],
)
def test_fixed_counterexamples_refuse_a_product_group(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: cyclic group or integer window: ProductGroup((3, 3)) is neither\n"


def test_verify_says_when_nothing_was_checked(capsys):
    bounds = "g=cyclic:11,universe=1-10,ranks=2"
    code, out, _ = invoke(capsys, "verify", "asy-order", "--bounds", bounds)
    assert code == 0 and re.fullmatch(r"asy-order: passed, vacuous \(0 instances, \d+ ms\)\n", out)
    code, doc = invoke_json(capsys, "verify", "asy-order", "--bounds", bounds, "--json")
    assert doc["checked"] == 0 and doc["vacuous"] is True
    code, out, _ = invoke(capsys, "verify", "asy-order", "--bounds", bounds.replace("2", "1"))
    assert code == 0 and out.startswith("asy-order: passed (10 instances, ")


def test_malformed_instance_is_usage_error(capsys, tmp_path):
    path = write_instance(
        tmp_path, {"group": {"kind": "cyclic", "n": 7}, "subsets": {"A": [9]}}
    )
    code, out, err = invoke(capsys, "classify", "--instance", path, "--set", "A")
    assert code == 2
    assert "element-out-of-group" in err

    path2 = write_instance(
        tmp_path,
        {
            "group": {"kind": "cyclic", "n": 11},
            "matroids": {
                "N": {"ground": [1, 2, 3], "rep": {"kind": "ch", "rank": 2, "ch": [[1, 2], [1, 3]]}}
            },
        },
        name="close.json",
    )
    code, out, err = invoke(capsys, "match", "--instance", path2, "--m", "N", "--n", "N")
    assert code == 2
    assert "too close" in err


def test_usage_error_on_missing_args(capsys):
    code = run(["match"])
    assert code == 2


def test_human_output_mode(capsys, sym_counterexample_file):
    code, out, err = invoke(
        capsys, "match", "--instance", sym_counterexample_file, "--m", "M", "--n", "M"
    )
    assert code == 1
    assert "matched: False" in out
    assert "failing basis: [1, 2]" in out


def test_budget_flag_exit_code(capsys):
    code, out, err = invoke(
        capsys, "verify", "sym-group", "--bounds", "g=cyclic:7", "--budget", "10"
    )
    assert code == 3 and "budget" in err.lower()


def test_match_mutual_flag(capsys, sym_counterexample_file):
    code, doc = invoke_json(
        capsys,
        "match",
        "--instance", sym_counterexample_file,
        "--m", "U", "--n", "U", "--mutual", "--json",
    )
    assert code == 0 and doc["mutual"] is True


def test_one_process_serves_many_requests_without_leaks(capsys, sym_counterexample_file):
    """No request's flags, defaults or errors reach the next one in the same process."""
    match = ("match", "--instance", sym_counterexample_file, "--m", "U", "--n", "U")
    code, mutual = invoke_json(capsys, *match, "--mutual", "--json")
    assert code == 0 and mutual.pop("mutual") is True
    assert invoke_json(capsys, *match, "--json") == (0, mutual)

    assert invoke(capsys, "match", "--instance", sym_counterexample_file)[0] == 2
    assert invoke_json(capsys, *match, "--json")[0] == 0

    reproduce = ("reproduce", "sym-counterexample", "--n", "2")
    code, doc = invoke_json(capsys, *reproduce, "--group", "cyclic:13", "--json")
    assert code == 0 and doc["bounds"]["group"] == {"kind": "cyclic", "n": 13}
    code, doc = invoke_json(capsys, *reproduce, "--json")
    assert code == 0 and doc["bounds"]["group"] == {"kind": "zwindow", "lo": 0, "hi": 8}


def test_enumerate_product_group_elements(capsys):
    code, doc = invoke_json(
        capsys,
        "enumerate", "--group", "product:3x3",
        "--elements", "[0,1];[1,0];[1,1];[2,2]", "--rank", "2", "--json",
    )
    assert code == 0 and doc["count"] == 10
    assert doc["ground"] == [[0, 1], [1, 0], [1, 1], [2, 2]]


def test_internal_check_failure_has_its_own_exit_code(
    capsys, monkeypatch, sym_counterexample_file
):
    import matchroid.matching
    from matchroid.cli import EXIT_INTERNAL
    from matchroid.errors import InternalCheckError

    def failing_check(*args):
        raise InternalCheckError("forced witness check failure")

    monkeypatch.setattr(matchroid.matching, "_check_witness", failing_check)
    code, out, err = invoke(
        capsys, "match", "--instance", sym_counterexample_file, "--m", "U", "--n", "U", "--json"
    )
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error" in err and "forced witness check failure" in err


def test_invalid_rectification_is_internal_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(Rectification, "is_freiman2", lambda self: False)
    u = {"ground": [1, 4], "rep": {"kind": "uniform", "rank": 1}}
    path = write_instance(
        tmp_path, {"group": {"kind": "cyclic", "n": 101}, "matroids": {"M": u, "N": u}}
    )
    code, out, err = invoke(
        capsys, "verify", "asy-order", "--instance", path, "--bounds", "m=M,n=N", "--json"
    )
    assert code == 4 and out == ""
    assert err == "internal error: rectification returned an invalid map\n"


# -- bounds -------------------------------------------------------------------


@pytest.mark.parametrize("theorem", sorted(SCOPE_KEYS))
def test_verify_unknown_bound_is_usage_error(capsys, theorem):
    code, out, err = invoke(capsys, "verify", theorem, "--bounds", "g=cyclic:7,bogus=1", "--json")
    assert code == 2 and out == ""
    assert err == f"error: unknown bound bogus: {known_keys(theorem, SCOPE_KEYS[theorem])}\n"


@pytest.mark.parametrize("theorem", sorted(INSTANCE_KEYS))
def test_verify_instance_unknown_bound_is_usage_error(capsys, tmp_path, theorem):
    path = write_instance(tmp_path, {"group": {"kind": "cyclic", "n": 7}, "matroids": {}})
    bounds = "m=M,bogus=1" if theorem == "only-if-1" else "m=M,n=N,bogus=1"
    code, out, err = invoke(
        capsys, "verify", theorem, "--instance", path, "--bounds", bounds, "--json"
    )
    assert code == 2 and out == ""
    assert err == f"error: unknown bound bogus: {known_keys(theorem, INSTANCE_KEYS[theorem])}\n"


def test_verify_seed_is_only_a_rado_bound(capsys):
    code, out, err = invoke(capsys, "verify", "kneser", "--bounds", "g=cyclic:5", "--seed", "3")
    assert code == 2 and out == "" and "unknown bound seed" in err
    code, doc = invoke_json(
        capsys, "verify", "rado", "--seed", "3", "--bounds", "count=5", "--json"
    )
    assert code == 0 and doc["bounds"]["seed"] == 3


def test_verify_only_if_2_refuses_a_without_x(capsys):
    code, out, err = invoke(capsys, "verify", "only-if-2", "--bounds", "g=cyclic:6,a=2", "--json")
    assert code == 2 and out == "" and "missing bound x" in err


def test_verify_json_bounds_equal_the_library_verdict(capsys):
    code, doc = invoke_json(
        capsys, "verify", "only-if-2", "--bounds", "g=product:2x4,a=[0,2],x=[1,0]", "--json"
    )
    rec = verify("only-if-2", bounds={"group": ProductGroup([2, 4]), "a": [0, 2], "x": [1, 0]})
    assert code == 0 and rec.instances_checked == 1
    assert doc == rec.to_json()


def test_parse_bounds_splits_only_outside_brackets():
    assert parse_bounds("g=cyclic:7,universe=[[0,1],[1,0]],sizes=2|3,m=M") == {
        "group": CyclicGroup(7),
        "universe": [[0, 1], [1, 0]],
        "sizes": (2, 3),
        "m": "M",
    }


@pytest.mark.parametrize(
    "theorem, bounds, key",
    [
        ("lemma-progression", "g=cyclic:7,sizes=[]", "sizes"),
        ("only-if-1", "g=cyclic:7,sizes=0", "sizes"),
        ("asy-1", "g=cyclic:11,ranks=[1,0]", "ranks"),
        ("transversal-2", "g=zwindow:-4:4,blocks=0", "blocks"),
    ],
)
def test_empty_or_non_positive_counts_are_refused(capsys, theorem, bounds, key):
    with pytest.raises(ValueError, match=f"bound {key}: needs one or more entries"):
        verify(theorem, bounds=parse_bounds(bounds))
    code, out, err = invoke(capsys, "verify", theorem, "--bounds", bounds, "--json")
    assert code == 2 and out == "" and err.startswith(f"error: bound {key}: ")


@pytest.mark.parametrize(
    "theorem, bounds, text, key",
    [
        ("rado", {"count": 2.9}, "count=2.9", "count"),
        ("rado", {"count": "3"}, 'count="3"', "count"),
        ("rado", {"seed": True}, "seed=[0]", "seed"),
        ("only-if-1", {"group": CyclicGroup(7), "sizes": [2.7]}, "g=cyclic:7,sizes=[2.7]", "sizes"),
        ("sym-counterexample", {"n": 2.9}, "n=2.9", "n"),
    ],
)
def test_int_bounds_are_refused_not_truncated(capsys, theorem, bounds, text, key):
    with pytest.raises(ValueError, match=f"^bound {key}: needs an int, not "):
        verify(theorem, bounds=bounds)
    code, out, err = invoke(capsys, "verify", theorem, "--bounds", text, "--json")
    assert code == 2 and out == "" and err.startswith(f"error: bound {key}: needs an int, not ")


@pytest.mark.parametrize(
    "text, universe", [("-3-3", tuple(range(-3, 4))), ("-3--1", (-3, -2, -1)), ("2-4", (2, 3, 4))]
)
def test_parse_bounds_reads_ranges_with_negative_ends(text, universe):
    assert parse_bounds(f"universe={text}") == {"universe": universe}


def test_verify_negative_range_equals_the_library_verdict(capsys):
    code, doc = invoke_json(
        capsys,
        "verify", "sparse-sym",
        "--bounds", "g=zwindow:-6:6,universe=-3-3,sizes=4,ranks=2", "--json",
    )
    bounds = {"universe": tuple(range(-3, 4)), "sizes": 4, "ranks": 2}
    rec = verify("sparse-sym", bounds={"group": IntegerWindow(-6, 6), **bounds})
    assert code == 0 and doc == rec.to_json()


@pytest.mark.parametrize(
    "theorem, bounds, key",
    [
        ("sparse-sym", "g=cyclic:11,universe=5-3", "universe"),
        ("sparse-sym", "g=cyclic:11,universe=[1,1,2,3,4]", "universe"),
        ("asy-1", "g=cyclic:11,universe_m=[]", "universe_m"),
        ("asy-1", "g=cyclic:11,universe_n=2|3|2", "universe_n"),
        # Default universes read from 0 upward: none is nonzero in [-8, 0].
        ("rank-criteria", "g=zwindow:-8:0", "universe"),
        ("asy-1", "g=zwindow:-8:0", "universe_n"),
        ("sparse-sym", "g=zwindow:-8:0", "universe"),
    ],
)
def test_an_empty_or_repeating_universe_is_refused(capsys, monkeypatch, theorem, bounds, key):
    monkeypatch.setattr(verifiers._Run, "__init__", None)  # refused before any run starts
    with pytest.raises(ValueError, match=f"^bound {key}: needs one or more distinct elements"):
        verify(theorem, bounds=parse_bounds(bounds))
    code, out, err = invoke(capsys, "verify", theorem, "--bounds", bounds, "--json")
    assert code == 2 and out == "" and err.startswith(f"error: bound {key}: ")


@pytest.mark.parametrize(
    "flags", [("--bounds", "g=cyclic:4", "--budget", "-1"), ("--bounds", "g=cyclic:4,budget=x")]
)
def test_verify_refuses_a_bad_budget(capsys, flags):
    code, out, err = invoke(capsys, "verify", "kneser", *flags, "--json")
    assert code == 2 and out == "" and err.startswith("error: bound budget: needs an int >= 0")


def test_verify_bare_element_universe(capsys):
    code, doc = invoke_json(
        capsys, "verify", "only-if-1", "--bounds", "g=cyclic:7,universe=3", "--json"
    )
    assert code == 0 and doc["bounds"]["universe"] == [3]


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(run, *, group):
        raise KeyError("forced crash")

    monkeypatch.setitem(VERIFIERS, "sym-group", broken)
    code, out, err = invoke(capsys, "verify", "sym-group", "--bounds", "g=cyclic:7", "--json")
    assert code == 4 and out == ""
    assert err.startswith("internal error: KeyError: 'forced crash'\nTraceback")


# -- visible behaviour ----------------------------------------------------------

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli.json"

#: Instance files written to the working directory of every pinned invocation.
CLI_INSTANCES = {
    "sym.json": {
        "group": {"kind": "zwindow", "lo": 0, "hi": 8},
        "matroids": {
            "M": {
                "ground": [1, 2, 3, 4],
                "rep": {"kind": "partition", "blocks": [[1], [2, 3, 4]], "caps": [1, 1]},
            },
            "U": {"ground": [1, 2, 3, 4], "rep": {"kind": "uniform", "rank": 2}},
        },
        "subsets": {"A": [1, 2, 3], "S": [1, 2, 3, 5], "F1": [4], "F2": [3, 4]},
    },
    "c4.json": {
        "group": {"kind": "cyclic", "n": 4},
        "subsets": {"A": [0, 2], "B": [1, 2], "C": [1, 3]},
    },
    "c11.json": {
        "group": {"kind": "cyclic", "n": 11},
        "matroids": {"M": {"ground": [0, 1, 2], "rep": {"kind": "uniform", "rank": 2}}},
    },
}

#: Case -> argv; each runs once as given and once with --json. Every subcommand
#: has a success, a usage error (exit 2) and, where it has one, a negative
#: answer (exit 1) and a budget error (exit 3).
CLI_CASES = {
    "match-matched": "match --instance sym.json --m U --n U",
    "match-mutual": "match --instance sym.json --m U --n U --mutual",
    "match-unmatched": "match --instance sym.json --m M --n M",
    "match-missing-option": "match --instance sym.json",
    "match-missing-file": "match --instance absent.json --m M --n M",
    "match-unknown-matroid": "match --instance sym.json --m X --n M",
    "match-basis-matched": "match-basis --instance sym.json --m M --n M --basis 1,4",
    "match-basis-unmatched": "match-basis --instance sym.json --m M --n M --basis 1,2",
    "match-basis-outside-group": "match-basis --instance sym.json --m M --n M --basis 1,9",
    "group-match-matched": "group-match --instance c4.json --a A --b C",
    "group-match-unmatched": "group-match --instance c4.json --a A --b B",
    "group-match-unknown-subset": "group-match --instance c4.json --a A --b Z",
    "classify-progression": "classify --instance sym.json --set A",
    "classify-semi-progression": "classify --instance sym.json --set S",
    "classify-unknown-subset": "classify --instance sym.json --set Z",
    "sumset-pair": "sumset --instance c4.json --a A --b B",
    "sumset-fold": "sumset --instance c4.json --a A --fold 2",
    "sumset-unknown-subset": "sumset --instance c4.json --a A --b Z",
    "rado-transversal": "rado --instance sym.json --n U --family F1,F2",
    "rado-violation": "rado --instance sym.json --n M --family F1,F2",
    "rado-unknown-subset": "rado --instance sym.json --n U --family F1,Z",
    "verify-passed": "verify sym-group --bounds g=cyclic:7",
    "verify-failed": "verify sparse-sym --bounds g=cyclic:11,universe=1-5,sizes=4,ranks=2",
    "verify-instance": "verify only-if-1 --instance c11.json --bounds m=M",
    "verify-unknown-bound": "verify kneser --bounds g=cyclic:5 --seed 3",
    "verify-budget": "verify sym-group --bounds g=cyclic:7 --budget 10",
    "reproduce-confirmed": "reproduce sym-counterexample --n 2",
    "reproduce-bad-size": "reproduce sym-counterexample --n 1",
    "enumerate-elements": "enumerate --group cyclic:7 --elements 1,2,3,4 --rank 2",
    "enumerate-instance": "enumerate --instance sym.json --set A --rank 2",
    "enumerate-no-group": "enumerate --rank 2",
    "enumerate-budget": "enumerate --group zwindow:0:20 --elements 1,2,3,4,5,6,7,8,9,10,11,12 --rank 6",
}


def _cli_outcome(capsys, argv):
    """(exit code, stdout, stderr) of one run, with verify's human ms masked."""
    code, out, err = invoke(capsys, *argv)
    out = re.sub(r", \d+ ms\)$", ", <ms> ms)", out, flags=re.M)
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("mode", ["human", "json"])
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_pinned(capsys, monkeypatch, tmp_path, case, mode):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    for name, obj in CLI_INSTANCES.items():
        write_instance(tmp_path, obj, name=name)
    argv = CLI_CASES[case].split() + (["--json"] if mode == "json" else [])
    expected = json.loads(GOLDEN_CLI.read_text())[f"{case} {mode}"]
    assert _cli_outcome(capsys, argv) == expected
    if expected["code"] in (2, 3, 4):
        assert expected["stdout"] == ""
