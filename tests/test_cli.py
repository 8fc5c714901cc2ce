"""Command-line surface: happy paths, output determinism, diagnostics."""

import json
import math
import time
import tracemalloc

import pytest

from pla import aggregators
from pla.aggregators import MERGE_TOL, SupportSpectrum
from pla.cli import main
from pla.parser import format_formula, parse_formula

from conftest import EF_FORK_DOC, PEF_DOC, PR_DOC, PSE_DOC, REMARK_DOC, ZERO_GAMMA_DOC


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(PR_DOC))
    return str(path)


@pytest.fixture
def remark_file(tmp_path):
    path = tmp_path / "remark.json"
    path.write_text(json.dumps(REMARK_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_document(capsys, tmp_path, command, option, doc):
    """Run ``check --net`` or ``eval --structure`` on the given document."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, option, str(path)]
    if command == "eval":
        argv += ["--formula", "P(x)", "--assign", "x=1"]
    return run(capsys, *argv)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCheck:
    def test_pr_network(self, capsys, pr_file):
        payload = run_json(capsys, "check", "--net", pr_file)
        assert payload["ranks"] == {"P": 0, "R": 1}
        assert payload["aggregation_free"] is True

    def test_remark_network_not_aggregation_free(self, capsys, remark_file):
        payload = run_json(capsys, "check", "--net", remark_file)
        assert payload["aggregation_free"] is False

    def test_formula_report(self, capsys, pr_file):
        payload = run_json(
            capsys, "check", "--net", pr_file, "--formula", "am[R(y) : y : distinct]"
        )
        assert payload["formula"]["function_rank"] == 1
        assert payload["formula"]["free_variables"] == []

    def test_cycle_is_an_error(self, capsys, tmp_path):
        doc = {"relations": [{"name": "R", "arity": 1, "parents": ["R"], "theta": "0.5"}]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--net", str(path))
        assert code == 1
        assert "cycle" in err


class TestSampleEvalInfer:
    def test_sample_then_eval(self, capsys, tmp_path, pr_file):
        world_file = tmp_path / "world.json"
        code, out, err = run(
            capsys, "sample", "--net", pr_file, "--n", "3", "--seed", "42",
            "--out", str(world_file),
        )
        assert code == 0, err
        payload = run_json(
            capsys, "eval", "--structure", str(world_file),
            "--formula", "am[R(y) : y : distinct]",
        )
        assert 0.0 <= payload["value"] <= 1.0

    def test_sample_deterministic(self, capsys, pr_file):
        _, out1, _ = run(capsys, "sample", "--net", pr_file, "--n", "4", "--seed", "7")
        _, out2, _ = run(capsys, "sample", "--net", pr_file, "--n", "4", "--seed", "7")
        assert out1 == out2

    def test_infer_exact(self, capsys, pr_file):
        payload = run_json(
            capsys, "infer", "exact", "--net", pr_file, "--n", "1",
            "--formula", "R(x)", "--assign", "x=1", "--value-set", "1",
        )
        assert payload["probability"] == pytest.approx(0.55, abs=1e-12)

    def test_infer_mc(self, capsys, pr_file):
        payload = run_json(
            capsys, "infer", "mc", "--net", pr_file, "--n", "2",
            "--formula", "R(x)", "--assign", "x=1", "--value-set", "1",
            "--samples", "2000", "--seed", "5",
        )
        assert abs(payload["estimate"] - 0.55) <= 3 * payload["ci95"]

    def test_infer_mc_requires_seed(self, capsys, pr_file):
        code, _, err = run(
            capsys, "infer", "mc", "--net", pr_file, "--n", "2",
            "--formula", "R(x)", "--assign", "x=1",
        )
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("n, assign, words", [
        ("3", "x=7", ("x=7", "[1, 3]")),
        ("3", "x=0", ("x=0", "[1, 3]")),
        ("3", "x=1,y=4", ("y=4", "[1, 3]")),
        ("3", None, ("no value for free variable x", "[1, 3]")),
        ("0", "x=1", ("--n must be >= 1, got 0",)),
        ("3", "x=a", ("bad assignment 'x=a'; expected var=element",)),
        # the second value would be read over the first, at x = 3
        ("3", "x=1,x=3", ("bad assignment 'x=3'; x is assigned twice",)),
        ("3", "x=1, =2", ("bad assignment ' =2'; no variable name",)),
        ("3", "x=1,", ("bad assignment ''; no variable name",)),
    ])
    def test_infer_rejects_bad_assignment(self, capsys, pr_file, mode, n, assign, words):
        argv = ["infer", mode, "--net", pr_file, "--n", n, "--formula", "R(x)",
                "--seed", "1", "--samples", "10"]
        if assign is not None:
            argv += ["--assign", assign]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        for word in words:
            assert word in err

    @pytest.mark.parametrize("assign, words", [
        ("x=3", ("x=3", "[1, 2]")),
        (None, ("no value for free variable x", "[1, 2]")),
        ("x=a", ("bad assignment 'x=a'; expected var=element",)),
        ("x=1, x=2", ("bad assignment ' x=2'; x is assigned twice",)),
        ("=1", ("bad assignment '=1'; no variable name",)),
    ])
    def test_eval_rejects_bad_assignment(self, capsys, tmp_path, assign, words):
        world = tmp_path / "world.json"
        world.write_text(json.dumps(
            {"domain_size": 2, "relations": [{"name": "P", "arity": 1, "tuples": [[1]]}]}
        ))
        argv = ["eval", "--structure", str(world), "--formula", "!P(x)"]
        if assign is not None:
            argv += ["--assign", assign]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        for word in words:
            assert word in err

    @pytest.mark.parametrize("command", ["infer-exact", "infer-mc", "eval", "converge",
                                         "eliminate", "check"])
    @pytest.mark.parametrize("formula, words", [
        ("Q(x)", ("Q with arity 1", "no symbol Q", "P/1, R/1")),
        ("R(x, x)", ("R with arity 2", "R has arity 1")),
        ("am[P(y) & R(x, y) : y : y != x]", ("R with arity 2", "R has arity 1")),
    ])
    def test_formula_must_fit_the_signature(self, capsys, tmp_path, pr_file, command,
                                            formula, words):
        world = tmp_path / "world.json"
        world.write_text(json.dumps({"domain_size": 2, "relations": [
            {"name": "P", "arity": 1, "tuples": [[1]]}, {"name": "R", "arity": 1, "tuples": []},
        ]}))
        argv = {
            "infer-exact": ["infer", "exact", "--net", pr_file, "--n", "2", "--assign", "x=1"],
            "infer-mc": ["infer", "mc", "--net", pr_file, "--n", "2", "--assign", "x=1",
                         "--seed", "1", "--samples", "5"],
            "eval": ["eval", "--structure", str(world), "--assign", "x=1"],
            "converge": ["converge", "--net", pr_file, "--n-grid", "3", "--samples", "5",
                         "--seed", "1"],
            "eliminate": ["eliminate", "--net", pr_file],
            "check": ["check", "--net", pr_file],
        }[command]
        code, out, err = run(capsys, *argv, "--formula", formula)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        for word in words:
            assert word in err

    def test_world_count_too_large_to_write_out(self, capsys, tmp_path):
        # 2^(10000^2) worlds: the cap check must not build that number
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"relations": [
            {"name": "E", "arity": 2, "parents": [], "theta": "0.5"}]}))
        code, out, err = run(
            capsys, "infer", "exact", "--net", str(path), "--n", "10000",
            "--formula", "E(x, y)", "--assign", "x=1,y=2",
        )
        assert (code, out) == (1, "")
        assert "2^100000000 worlds exceed the cap" in err

    @pytest.mark.parametrize("value_set", ["nan", "2", "0.5:nan", "0.5:1.5"])
    def test_value_set_outside_unit_interval(self, capsys, pr_file, value_set):
        code, out, err = run(
            capsys, "infer", "exact", "--net", pr_file, "--n", "1",
            "--formula", "R(x)", "--assign", "x=1", "--value-set", value_set,
        )
        assert (code, out) == (1, "")
        assert "not within [0, 1]" in err

    # the 2^2 worlds of P/R at n = 1, and the 2^4 complete types of x != y
    @pytest.mark.parametrize("variable, cap, argv", [
        ("PLA_WORLD_CAP", "3", ["infer", "exact", "--n", "1", "--formula", "R(x)",
                                "--assign", "x=1"]),
        ("PLA_TYPE_CAP", "15", ["eliminate", "--formula", "am[R(y) : y : y != x]"]),
    ])
    def test_cap_env(self, capsys, pr_file, monkeypatch, variable, cap, argv):
        monkeypatch.setenv(variable, cap)
        code, _, err = run(capsys, *argv, "--net", pr_file)
        assert code == 1
        assert "exceed the cap %s" % cap in err
        for value, wanted in (("abc", "an integer"), ("0", ">= 1"), ("-5", ">= 1")):
            monkeypatch.setenv(variable, value)
            code, out, err = run(capsys, *argv, "--net", pr_file)
            assert (code, out) == (1, "")
            assert err == "error: %s must be %s, got %r\n" % (variable, wanted, value)


REPORT_NETWORKS = {"pr": PR_DOC, "pse": PSE_DOC, "pef": PEF_DOC, "zero-gamma": ZERO_GAMMA_DOC}

# am, gm, max and min, one and two bound variables, aggregations under
# connectives, and rows of gamma 0; no built-in binary function has a limit
REPORT_CASES = [
    ("pr-am", "pr", "am[R(y) : y : y != x]"),
    ("pr-implies-gm", "pr", "(am[R(y) : y : y != x] -> R(x)) & gm[R(y) | P(x) : y : distinct]"),
    ("pr-two-bound", "pr", "am[R(y) & !R(z) | P(x) : y, z : y != x, z != x, y != z]"),
    ("pr-min-two-bound", "pr", "min[wm(R(y); 0.8; 0.3) : y, z : y != x, z != x, y != z]"),
    ("pse-am-edge", "pse", "am[E(x, y) : y : y != x]"),
    ("pse-connectives", "pse",
     "!am[S(y) & E(y, x) : y : y != x] | wm(P(x); max[E(x, y) : y : y != x]; 0.25)"),
    ("pef-gm", "pef", "gm[wm(F(x, y); 0.9; 0.4) | E(y, x) : y : y != x]"),
    ("pef-min-max", "pef", "min[F(x, y) | P(y) : y : y != x] & max[F(y, x) : y : y != x]"),
    ("zero-gamma-am", "zero-gamma", "am[R(y) : y : y != x]"),
    ("zero-gamma-param", "zero-gamma", "am[R(y) | P(x) : y : y != x]"),
]


class TestEliminateCommand:
    def test_report_contains_constant_and_alpha_check(self, capsys, pr_file):
        payload = run_json(
            capsys, "eliminate", "--net", pr_file,
            "--formula", "am[R(y) : y : distinct]",
        )
        assert payload["output_conjuncts"] == [{"type": "1.0", "value": 0.55}]
        table = payload["aggregation_nodes"][0]["table"]
        assert all(abs(r["sum_alpha"] - 1.0) <= 1e-9 for r in table["rows"])

    def test_type_cap_is_checked_before_any_type_is_built(self, capsys, tmp_path):
        # one P, 4^2 E and 4^2 F slots over the 4 classes: 2^36 types, which
        # would exhaust memory long before the message if any were built; the
        # peak shows that none is, and the time bound leaves room for a loaded host
        path = tmp_path / "net.json"
        path.write_text(json.dumps(EF_FORK_DOC))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run(capsys, "eliminate", "--net", str(path), "--formula",
                                 "am[E(x, y) & F(y, z) & E(z, w) : y, z, w : distinct]")
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "error: 2^36 complete types exceed the cap 4194304\n"
        assert elapsed < 5.0 and peak < 2 ** 20, (elapsed, peak)

    def test_rejects_aggregating_network(self, capsys, remark_file):
        code, _, err = run(
            capsys, "eliminate", "--net", remark_file,
            "--formula", "max[R(x) : x : x = x]",
        )
        assert code == 1
        assert "aggregation" in err

    @pytest.mark.parametrize("net, formula", [case[1:] for case in REPORT_CASES],
                             ids=[case[0] for case in REPORT_CASES])
    def test_report_alone_explains_each_constant(self, capsys, tmp_path, net, formula):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(REPORT_NETWORKS[net]))
        argv = ["eliminate", "--net", str(path), "--formula", formula]
        report = run_json(capsys, *argv)
        full = run_json(capsys, *argv, "--full-table")
        nodes = list(zip(report["aggregation_nodes"], full["aggregation_nodes"], strict=True))
        tables = [(node, full_node) for node, full_node in nodes if node["table"] is not None]
        assert tables
        zero_rows = 0
        for node, full_node in tables:
            func = aggregators.DEFAULT_REGISTRY.get(node["function"])
            assert node["table"]["limit_method"] == func.limit_method
            # a row's base holds some of the literals of a type over the
            # parameters; each such type compiles to the row's constant
            unmatched = {d["type"]: d["value"] for d in node["limits"]}
            for row, full_row in zip(node["table"]["rows"], full_node["table"]["rows"],
                                     strict=True):
                assert row["base"] == full_row["base"]
                assert row["extensions"] == len(full_row["entries"])
                literals = set(row["base"].split(" & ")) - {"1.0"}
                limits = [unmatched.pop(t) for t in list(unmatched)
                          if literals <= set(t.split(" & "))]
                assert limits
                if row["spectra"] is None:
                    zero_rows += 1
                    assert row["gamma"] == 0.0
                    assert limits == [1.0] * len(limits)
                    assert ("type %s has limit probability 0; its compiled value 1 is arbitrary"
                            % row["base"]) in node["warnings"]
                    continue
                spectra = tuple(SupportSpectrum(tuple(map(tuple, points)))
                                for points in row["spectra"])
                assert len(spectra) == func.arity
                for spectrum in spectra:
                    # printed merged: merging again changes nothing
                    assert spectrum.merged() == spectrum
                    assert abs(math.fsum(a for _, a in spectrum.points) - 1.0) <= MERGE_TOL
                assert limits == [aggregators.limit(func, spectra)] * len(limits)
            assert not unmatched
        # only a row that fixes P(x) on zero-gamma, where P always holds, has gamma 0
        assert (zero_rows > 0) == (net == "zero-gamma" and "P(x)" in formula)
        # the flag changes only the alpha tables
        for node, full_node in nodes:
            del node["table"], full_node["table"]
        assert report == full


class TestConverge:
    def test_csv_on_compiled_network(self, capsys, pr_file):
        code, out, err = run(
            capsys, "converge", "--net", pr_file,
            "--formula", "am[R(y) : y : distinct]",
            "--n-grid", "10,30", "--samples", "100", "--seed", "3",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == "n,epsilon,p_exceed,ci_exceed,d_0,p_near_0,ci_0"
        assert len(lines) == 3

    def test_value_set_on_remark_network(self, capsys, remark_file):
        code, out, err = run(
            capsys, "converge", "--net", remark_file,
            "--formula", "max[R(x) : x : x = x]",
            "--n-grid", "20", "--samples", "200", "--seed", "3",
            "--value-set", "1",
        )
        assert code == 0, err
        assert out.splitlines()[0] == "n,epsilon,p_value_set,ci_value_set"

    def test_remark_without_value_set_is_an_error(self, capsys, remark_file):
        code, _, err = run(
            capsys, "converge", "--net", remark_file,
            "--formula", "max[R(x) : x : x = x]",
            "--n-grid", "20", "--samples", "100", "--seed", "3",
        )
        assert code == 1
        assert "value-set" in err

    # JSON has no inf: the report would print "epsilon": Infinity
    @pytest.mark.parametrize("epsilon, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
    def test_negative_or_nan_epsilon_is_an_error(self, capsys, pr_file, epsilon, shown):
        code, out, err = run(
            capsys, "converge", "--net", pr_file, "--formula", "am[R(y) : y : distinct]",
            "--n-grid", "5", "--samples", "10", "--seed", "3", "--epsilon", epsilon,
            "--format", "json",
        )
        assert (code, out) == (1, "")
        assert err == "error: --epsilon must be finite and >= 0, got %s\n" % shown

    def test_byte_identical_reruns(self, capsys, pr_file):
        args = (
            "converge", "--net", pr_file, "--formula", "am[R(y) : y : distinct]",
            "--n-grid", "10", "--samples", "50", "--seed", "11",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_workers_shard_samples(self, capsys, pr_file):
        code, out, err = run(
            capsys, "converge", "--net", pr_file,
            "--formula", "am[R(y) : y : distinct]",
            "--n-grid", "10", "--samples", "60", "--seed", "11", "--workers", "2",
        )
        assert code == 0, err
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("command", ["infer", "converge"])
    def test_workers_below_one_are_rejected(self, capsys, pr_file, command):
        if command == "infer":
            argv = ["infer", "mc", "--n", "3", "--formula", "R(x)", "--assign", "x=1",
                    "--samples", "10", "--seed", "1"]
        else:
            argv = ["converge", "--formula", "am[R(y) : y : distinct]", "--n-grid", "3",
                    "--samples", "10", "--seed", "1"]
        code, out, err = run(capsys, *argv, "--net", pr_file, "--workers", "0")
        assert (code, out) == (1, "")
        assert err == "error: --workers must be >= 1, got 0\n"


class TestWorkers:
    """--workers sets the speed only: the worlds come in seeded blocks of
    1024, whatever the number of processes that draw them."""

    @pytest.mark.parametrize("argv", [
        ["infer", "mc", "--n", "6", "--formula", "am[R(y) : y : y != x]", "--assign", "x=1",
         "--value-set", "0.5:1", "--samples", "2500", "--seed", "3"],
        ["converge", "--formula", "am[R(y) : y : y != x]", "--n-grid", "4,6",
         "--epsilon", "0.2", "--samples", "1100", "--seed", "5"],
    ])
    def test_output_does_not_depend_on_workers(self, capsys, pr_file, argv):
        outs = []
        for workers in ("1", "2", "3"):
            code, out, err = run(capsys, *argv, "--net", pr_file, "--workers", workers)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_one_block_is_the_single_stream(self, capsys, pr_file, workers):
        # 400 samples are one block, drawn from random.Random(seed) as one
        # worker drew them before the blocks; two workers printed 0.635 then
        out = run_json(capsys, "infer", "mc", "--net", pr_file, "--n", "20",
                       "--formula", "am[R(y) : y : y != x]", "--assign", "x=1",
                       "--value-set", "0.5:1", "--samples", "400", "--seed", "3",
                       "--workers", workers)
        assert out["estimate"] == 0.65


class TestAdmissible:
    def test_am_passes(self, capsys):
        payload = run_json(
            capsys, "admissible", "--function", "am",
            "--lengths", "100,1000", "--trials", "5", "--spectra", "3", "--seed", "1",
        )
        assert payload["passed"] is True

    def test_noisy_or_fails(self, capsys):
        payload = run_json(
            capsys, "admissible", "--function", "noisy-or",
            "--lengths", "100,1000,10000", "--trials", "3", "--spectra", "2", "--seed", "1",
        )
        assert payload["passed"] is False

    @pytest.mark.parametrize("lengths, shown", [("0", "0"), ("-5", "-5"), ("100,0", "0")])
    def test_lengths_below_one_are_an_error(self, capsys, lengths, shown):
        code, out, err = run(capsys, "admissible", "--function", "am", "--lengths", lengths,
                             "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: --lengths must be >= 1, got %s\n" % shown

    @pytest.mark.parametrize("threshold, shown", [
        ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0"), ("1.5", "1.5")])
    def test_threshold_outside_zero_one_is_named(self, capsys, threshold, shown):
        # NaN would be written into the JSON report; a threshold <= 0 never passes
        code, out, err = run(capsys, "admissible", "--function", "am", "--threshold", threshold,
                             "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: --threshold must be in (0, 1], got %s\n" % shown

    def test_unknown_function(self, capsys):
        code, _, err = run(capsys, "admissible", "--function", "nope", "--seed", "1")
        assert code == 1
        assert "unknown aggregation function" in err


class TestParseErrors:
    def test_formula_diagnostic_has_position(self, capsys, pr_file):
        code, _, err = run(
            capsys, "check", "--net", pr_file, "--formula", "P(x) &",
        )
        assert code == 1
        assert "line 1" in err

    def test_missing_network_file(self, capsys):
        code, _, err = run(capsys, "check", "--net", "does-not-exist.json")
        assert code == 1


class TestRobustness:
    @pytest.mark.parametrize("command, option, doc", [
        ("check", "--net", {"relations": [1]}),
        ("check", "--net", [1, 2]),
        ("eval", "--structure", {"domain_size": 2, "relations": [1]}),
        ("eval", "--structure", [1]),
    ])
    def test_malformed_document_is_an_error(self, capsys, tmp_path, command, option, doc):
        code, _, err = run_on_document(capsys, tmp_path, command, option, doc)
        assert code == 1
        assert "relation" in err

    def test_long_chain(self, capsys, tmp_path, pr_file):
        chain = " & ".join(["P(x)"] * 5000)
        payload = run_json(capsys, "check", "--net", pr_file, "--formula", chain)
        assert payload["formula"]["text"] == chain
        world = tmp_path / "world.json"
        world.write_text(json.dumps(
            {"domain_size": 1, "relations": [{"name": "P", "arity": 1, "tuples": [[1]]}]}
        ))
        payload = run_json(capsys, "eval", "--structure", str(world),
                           "--formula", chain, "--assign", "x=1")
        assert payload["value"] == 1.0

    def test_deep_nesting_is_an_error(self, capsys, tmp_path):
        # only &/| chains are walked in a loop; thousands of nested ! overflow
        world = tmp_path / "world.json"
        world.write_text(json.dumps(
            {"domain_size": 1, "relations": [{"name": "P", "arity": 1, "tuples": [[1]]}]}
        ))
        code, _, err = run(capsys, "eval", "--structure", str(world),
                           "--formula", "!" * 5000 + "P(x)", "--assign", "x=1")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command, option, doc, words", [
        ("check", "--net", {"relations": [{"name": "P", "parents": [], "theta": "0.5"}]},
         ("P", "arity")),
        ("check", "--net", {"relations": [{"name": "P", "arity": 1, "parents": []}]},
         ("P", "theta")),
        ("check", "--net", {"relations": [{"arity": 1, "parents": [], "theta": "0.5"}]},
         ("relation 0", "name")),
        ("eval", "--structure", {"domain_size": 2, "relations": [{"name": "P", "arity": 1}]},
         ("P", "tuples")),
        ("eval", "--structure", {"relations": [{"name": "P", "arity": 1, "tuples": [[1]]}]},
         ("domain_size",)),
        ("check", "--net", {"relations": [
            {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
            {"name": "R", "arity": 1, "parents": ["P"], "theta": "wm(P(x1); 0.9 0.1)"}]},
         ("relation 1 (R)", "theta", "expected ';'", "column 15")),
        # arity and domain_size must be integers, not truncated or parsed
        ("check", "--net", {"relations": [{"name": "P", "arity": 1.5, "parents": [], "theta": "0.5"}]},
         ("relation 0 (P)", "'arity'", "int")),
        ("check", "--net", {"relations": [{"name": "P", "arity": "x", "parents": [], "theta": "0.5"}]},
         ("relation 0 (P)", "'arity'", "int")),
        ("check", "--net", {"relations": [{"name": "P", "arity": True, "parents": [], "theta": "0.5"}]},
         ("relation 0 (P)", "'arity'", "int")),
        ("eval", "--structure", {"domain_size": 2.5, "relations": [
            {"name": "P", "arity": 1, "tuples": [[1]]}]},
         ("'domain_size'", "int")),
        ("eval", "--structure", {"domain_size": 2, "relations": [
            {"name": "P", "arity": 1.9, "tuples": [[1]]}]},
         ("relation 0 (P)", "'arity'", "int")),
        ("eval", "--structure", {"domain_size": 2, "relations": [
            {"name": "P", "arity": 1, "tuples": [[True]]}]},
         ("'P'", "tuple")),
        # the tuple cap is checked from the sizes, before any column is built
        ("eval", "--structure", {"domain_size": 10 ** 12, "relations": [
            {"name": "P", "arity": 1, "tuples": []}]},
         ("domain size 1000000000000 over P/1 has 1000000000000 tuples, more than the cap",)),
    ])
    def test_missing_required_key_is_named(self, capsys, tmp_path, command, option, doc, words):
        code, _, err = run_on_document(capsys, tmp_path, command, option, doc)
        assert code == 1
        assert err.startswith("error: ")
        for word in words:
            assert word in err

    @pytest.mark.parametrize("argv, shown", [
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "a"],
         "--n-grid must be comma-separated integers, got 'a'"),
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "5,,9"],
         "--n-grid must be comma-separated integers, got '5,,9'"),
        (["admissible", "--function", "am", "--lengths", ""],
         "--lengths must be comma-separated integers, got ''"),
    ])
    def test_integer_list_option_is_named(self, capsys, pr_file, argv, shown):
        code, out, err = run(capsys, *[a.format(net=pr_file) for a in argv], "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: %s\n" % shown

    @pytest.mark.parametrize("argv, shown", [
        (["sample", "--net", "{net}", "--n", "0"], "--n must be >= 1, got 0"),
        (["infer", "mc", "--net", "{net}", "--n", "-2", "--formula", "P(x)", "--assign", "x=1"],
         "--n must be >= 1, got -2"),
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "5,-1"],
         "--n-grid must be >= 1, got -1"),
        # a domain of 1 element cannot hold the formula's two distinct parameters
        (["converge", "--net", "{net}", "--formula", "am[R(y) : y : y != x1, y != x2, x1 != x2]",
          "--n-grid", "3,1"], "--n-grid must be >= 2, got 1"),
        # more tuples than the cap: refused before any tuple list is built
        (["sample", "--net", "{net}", "--n", "10000000"],
         "a structure of domain size 10000000 over P/1, R/1 has 20000000 tuples, "
         "more than the cap 16777216"),
        (["infer", "mc", "--net", "{net}", "--n", "10000000", "--formula", "P(x)", "--assign",
          "x=1"], "a structure of domain size 10000000 over P/1, R/1 has 20000000 tuples, "
                  "more than the cap 16777216"),
        (["admissible", "--function", "am", "--spectra", "-3"], "--spectra must be >= 0, got -3"),
        (["admissible", "--function", "am", "--trials", "-1"], "--trials must be >= 0, got -1"),
    ])
    def test_count_option_out_of_range_is_named(self, capsys, pr_file, argv, shown):
        code, out, err = run(capsys, *[a.format(net=pr_file) for a in argv], "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: %s\n" % shown

    @pytest.mark.parametrize("argv, text", [
        (["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "P(x)",
          "--assign", "x=1"], "0.5:abc"),
        (["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "P(x)",
          "--assign", "x=1"], ""),
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "2"], "0.5:abc"),
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "2"], ""),
        (["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "2"], "0.5:"),
    ])
    def test_value_set_option_is_named(self, capsys, pr_file, argv, text):
        code, out, err = run(capsys, *[a.format(net=pr_file) for a in argv],
                             "--value-set", text, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == ("error: --value-set must be comma-separated points or lo:hi "
                       "intervals, got %r\n" % text)

    @pytest.mark.parametrize("argv", [
        ["infer", "exact", "--net", "{net}", "--n", "2", "--formula", "P(x)", "--assign", "x=1"],
        ["converge", "--net", "{net}", "--formula", "P(x)", "--n-grid", "2"],
    ])
    @pytest.mark.parametrize("text, shown", [
        ("0.8:0.2", "empty interval [0.8, 0.2]"),
        ("2", "value set interval [2.0, 2.0] is not within [0, 1]"),
        ("nan", "value set interval [nan, nan] is not within [0, 1]"),
    ])
    def test_value_set_range_error_names_the_option(self, capsys, pr_file, argv, text, shown):
        code, out, err = run(capsys, *[a.format(net=pr_file) for a in argv],
                             "--value-set", text, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: --value-set %r: %s\n" % (text, shown)

    @pytest.mark.parametrize("argv", [
        ["infer", "mc", "--n", "3", "--formula", "R(x)", "--assign", "x=1"],
        ["converge", "--formula", "am[R(y) : y : distinct]", "--n-grid", "3"],
    ])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_name_the_option(self, capsys, pr_file, argv, samples):
        code, out, err = run(capsys, *argv, "--net", pr_file, "--samples", samples,
                             "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: --samples must be >= 1, got %s\n" % samples

    @pytest.mark.parametrize("argv", [
        ["infer", "mc", "--n", "3", "--formula", "R(x)", "--assign", "x=1"],
        ["converge", "--formula", "am[R(y) : y : distinct]", "--n-grid", "3"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_name_the_option(self, capsys, pr_file, argv, workers):
        code, out, err = run(capsys, *argv, "--net", pr_file, "--samples", "10",
                             "--workers", workers, "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: --workers must be >= 1, got %s\n" % workers

    def test_long_compiled_report_parses_back(self, capsys, tmp_path):
        doc = {
            "relations": [
                {"name": "P", "arity": 1, "parents": [], "theta": "0.3"},
                {"name": "Q", "arity": 2, "parents": ["P"], "theta": "wm(P(x1); 0.6; 0.2)"},
                {"name": "E", "arity": 2, "parents": ["P"], "theta": "wm(P(x2); 0.7; 0.1)"},
            ]
        }
        path = tmp_path / "pqe.json"
        path.write_text(json.dumps(doc))
        payload = run_json(capsys, "eliminate", "--net", str(path),
                           "--formula", "E(x, y) & Q(y, x)")
        assert len(payload["output_conjuncts"]) == 1032
        text = payload["output"]
        assert format_formula(parse_formula(text)) == text
