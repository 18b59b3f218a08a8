import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hyperdefect
from hyperdefect import invariants, polynomials, ranks
from hyperdefect.cli import main
from hyperdefect.fixtures import FIXTURES, get_fixture
from hyperdefect.polynomials import parse_expression, emit_term_list

SEGRE = "(x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3)"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPTS = PYPROJECT.parent / "scripts"
# Directory holding the hyperdefect package this test run imported; child
# Pythons get it first on PYTHONPATH so they run the same code.
PACKAGE_ROOT = str(Path(hyperdefect.__file__).resolve().parent.parent)
CHILD_TIMEOUT_S = 120


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defect_expr_segre(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE)
    assert code == 0
    assert "defect:  5" in out
    assert "gamma:   5" in out


def test_defect_json_schema(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 5
    assert payload["gamma"] == 5
    assert payload["input"]["variables"] == ["x", "y", "z", "u", "v"]
    assert [e["prime"] for e in payload["ranks"]["full"]["per_prime"]] == [
        32633, 32647, 32653,
    ]

    def no_floats(node):
        assert not isinstance(node, float), node
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        elif isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(payload)


def test_json_output_is_byte_identical(capsys):
    first = run(capsys, "defect", "--expr", SEGRE, "--json")
    second = run(capsys, "defect", "--expr", SEGRE, "--json")
    assert first == second


# `hyperdefect defect --json` output of every corpus fixture, and of the
# Segre cubic's raw report at --k 2, pinned byte for byte.  A change that
# alters a report on purpose regenerates these files and says why.
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES))
def test_corpus_json_matches_golden(corpus, name):
    text = json.dumps(corpus.report(name).as_dict(), indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text()


def test_raw_report_json_matches_golden(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE, "--k", "2", "--json")
    assert code == 0
    assert out == (GOLDEN / "segre-cubic-k2.json").read_text()


def test_defect_term_list_input(tmp_path, capsys):
    path = tmp_path / "segre.terms"
    path.write_bytes(emit_term_list(parse_expression(SEGRE)))
    code, out, _ = run(capsys, "defect", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 5
    assert payload["gamma"] == 5


def test_defect_septic_term_list_matches_its_expression(tmp_path, capsys):
    septic = "(x+y+z+u+v)^7+x^7"  # all 330 monomials of degree 7
    path = tmp_path / "septic.terms"
    path.write_bytes(emit_term_list(parse_expression(septic)))
    code, from_file, _ = run(capsys, "defect", "--input", str(path), "--k", "2", "--json")
    assert code == 0
    code, from_expr, _ = run(capsys, "defect", "--expr", septic, "--k", "2", "--json")
    assert code == 0 and from_file == from_expr


def test_defect_nonhomogeneous_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--expr", "x^2+y")
    assert code == 2
    assert "not homogeneous" in err


def test_defect_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--expr", "x + * y")
    assert code == 2
    assert "error" in err


def test_defect_expression_over_the_term_budget_exits_2_promptly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "defect", "--expr", "(x+y+z+u+v)^60")
    assert code == 2
    assert "product too large" in err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("expression", ["7^9999999", "(7*x)^9999999", "9^9^9^9"])
def test_defect_huge_power_exits_2_before_multiplying(capsys, expression):
    start = time.perf_counter()
    code, _, err = run(capsys, "defect", "--expr", expression)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: power too large: coefficients up to 2^")


def test_defect_chained_product_exits_2_before_multiplying():
    # 4000 factors of 2^2048 (28 KB): refused at the second factor, where
    # the coefficients could first pass 2^2048
    text = "*".join(["2^2048"] * 4000) + "*x^3+y^3+z^3+u^3+v^3"
    start = time.perf_counter()
    result = _run_child([sys.executable, "-m", "hyperdefect", "defect", "--expr", text])
    assert time.perf_counter() - start < 1
    assert result.returncode == 2
    assert result.stderr == "error: product too large: coefficients up to 2^4096 exceed 2^2048\n"


@pytest.mark.parametrize("expression", ["5", "9^9^9"])
@pytest.mark.parametrize("k", ["2", "3"])
def test_defect_constant_form_exits_2(capsys, expression, k):
    # a nonzero constant is a form of degree 0: it defines no hypersurface
    code, out, err = run(capsys, "defect", "--expr", expression, "--k", k)
    assert code == 2 and not out
    assert err == "error: a form of degree 0 defines no hypersurface\n"


@pytest.mark.parametrize("names", ["x,y,z,", "x,1", "x,subst"])
def test_defect_bad_variable_name_exits_2(capsys, names):
    code, out, err = run(capsys, "defect", "--expr", "x^3", "--vars", names, "--k", "2")
    assert code == 2 and not out
    assert err.startswith("error: variable names must be identifiers other than subst")
    assert err.count("\n") == 1


def test_term_list_input_is_refused_without_reading_past_the_budget(tmp_path, capsys, monkeypatch):
    # refused at term 1025 of 2**21: the file is streamed, never read whole
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_TERMS", 1024)
    path = tmp_path / "terms.txt"
    path.write_bytes(b"1 3 0 0 0 0\n" * (1 << 21) + b"/")  # 25 MB
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "defect", "--input", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (2, "error: too many terms: 1025 > 1024\n")
    assert peak < path.stat().st_size // 4


@pytest.mark.parametrize("depth", [250, 10_000])
def test_defect_deep_nesting_exits_2_without_a_traceback(depth):
    text = "(" * depth + "x^3+y^3+z^3+u^3+v^3" + ")" * depth
    result = _run_child([sys.executable, "-m", "hyperdefect", "defect", "--expr", text])
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: nesting deeper than 100")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_defect_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--input", "/nonexistent/f.terms")
    assert code == 2


def test_defect_exact_budget_exits_3(capsys):
    expr = "x*(x^4+y^4+z^4+u^4+v^4)+y*(x^4-2*y^4+3*z^4-4*u^4+5*v^4)"
    code, _, err = run(capsys, "defect", "--expr", expr, "--exact")
    assert code == 3
    assert "exceeds exact budget" in err


def test_defect_exact_budget_is_checked_before_any_elimination(capsys, monkeypatch):
    # full is 1075x1127, past the exact budget; A (25x126) fits it, and is
    # neither built nor eliminated
    calls = []
    monkeypatch.setattr(ranks, "_echelon", lambda *args: calls.append(args))
    monkeypatch.setattr(invariants, "assemble_phi", lambda *args: calls.append(args))
    expr = get_fixture("quintic-vgw-118a").expression
    code, _, err = run(capsys, "defect", "--expr", expr, "--exact")
    assert code == 3
    assert "1075x1127 exceeds exact budget of 1048576 cells" in err
    assert calls == []


def test_defect_over_the_size_budget_exits_3_at_once(capsys):
    # full would be 8364850 x 9443252: refused from its shape, before assembly
    start = time.perf_counter()
    code, _, err = run(capsys, "defect", "--expr", "x^40+y^40+z^40+u^40+v^40")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "exceeds the modular budget" in err


def test_defect_exact_certifies_small_degree(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE, "--exact", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(block["certified"] for block in payload["ranks"].values())


def test_defect_k2_routes_to_raw_report(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE, "--k", "2")
    assert code == 0
    # gamma = h^{2,1} = 5 of a smooth cubic threefold absorbs mu = dim R_1 = 5
    assert "gamma:   5" in out
    assert "e2 dim:  0" in out
    assert "defect" not in out


def test_defect_huge_coefficient_is_not_an_overflow(capsys):
    # 2^70 does not fit int64: ranks reduce Python ints mod p or stay in Python ints
    code, out, err = run(capsys, "defect", "--expr", "2^70*x^3+y^3+z^3+u^3+v^3", "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["defect"] == 0
    assert all(block["certified"] for block in payload["ranks"].values())


def test_defect_symmetric_form_whose_values_span_past_int64(capsys):
    # fixed by all of S_5; `full`'s entries run from -(2^63 - 1) to 5, a
    # span past int64, so its symmetries are checked without one int64 key
    expression = "x^5+y^5+z^5+u^5+v^5-9223372036854775807*x*y*z*u*v"
    code, out, err = run(capsys, "defect", "--expr", expression, "--primes", "1")
    assert code == 0, err
    assert "defect:  0" in out


def test_rank_invariant_violation_exits_4(capsys, monkeypatch):
    # the Segre cubic's wedge_low, 0x5, has no entries and is never
    # eliminated, so the fault goes into its report
    real = invariants.rank_multimodular

    def one_rank_too_many(matrix, *args, **kwargs):
        report = real(matrix, *args, **kwargs)
        if matrix.rows == 0:
            ranks_plus_one = tuple((p, r + 1) for p, r in report.per_prime)
            report = dataclasses.replace(report, per_prime=ranks_plus_one)
        return report

    monkeypatch.setattr(invariants, "rank_multimodular", one_rank_too_many)
    code, _, err = run(capsys, "defect", "--expr", SEGRE)
    assert code == 4
    assert "wedge_low: rank 1 mod 32633 outside [0, 0]" in err


def test_exact_rank_below_a_prime_exits_4(capsys, monkeypatch):
    # a prime can only lower a rank: an exact rank below one is a fault,
    # not an uncertified report
    real = ranks._certify
    monkeypatch.setattr(ranks, "_certify", lambda *args: real(*args)[:-1])
    code, out, err = run(capsys, "defect", "--expr", SEGRE, "--json")
    assert code == 4, out
    assert "wedge_high: exact rank 59 below rank 60 mod 32633" in err


def test_defect_four_variables_routes_to_raw_report(capsys):
    code, out, _ = run(
        capsys, "defect", "--expr", "x^3+y^3+z^3+u^3", "--vars", "x,y,z,u"
    )
    assert code == 0
    assert "e2 dim:" in out


def test_defect_prime_list(capsys):
    code, out, _ = run(
        capsys, "defect", "--expr", SEGRE, "--prime-list", "32687,32693", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["prime"] for e in payload["ranks"]["full"]["per_prime"]] == [32687, 32693]
    assert payload["defect"] == 5


def test_defect_bad_prime_count_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--expr", SEGRE, "--primes", "99")
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--prime-list", ""], "error: --prime-list must be comma-separated integers, got ''\n"),
        (
            ["--prime-list", "32633,"],
            "error: --prime-list must be comma-separated integers, got '32633,'\n",
        ),
    ],
)
def test_defect_bad_prime_list_names_the_flag(capsys, flags, message):
    code, out, err = run(capsys, "defect", "--expr", SEGRE, *flags)
    assert (code, out, err) == (2, "", message)


def test_defect_prime_past_the_float64_bound_exits_2(capsys):
    code, out, err = run(capsys, "defect", "--expr", SEGRE, "--prime-list", "2147483647")
    assert (code, out, err) == (2, "", "error: prime 2147483647 outside [2, 11863279]\n")


@pytest.mark.parametrize("count", ["2", "3"])
def test_defect_primes_and_prime_list_exclude_each_other(capsys, count):
    # 3 is the default count: it must be refused like any other
    with pytest.raises(SystemExit) as exit_info:
        main(["defect", "--expr", SEGRE, "--primes", count, "--prime-list", "32633"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        "hyperdefect defect: error: argument --prime-list: not allowed with argument --primes"
    ]


def test_hodge_quintic(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "3", "--d", "5")
    assert code == 0
    assert "euler characteristic: -200" in out
    assert "1 101 101 1" in out
    assert "hodge symmetry: ok" in out


def test_hodge_hyperplane(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "3", "--d", "1")
    assert code == 0
    assert "euler characteristic: 4" in out
    assert "0 0 0 0" in out


def test_hodge_elliptic_curve(capsys):
    code, out, _ = run(capsys, "hodge", "--n", "1", "--d", "3")
    assert code == 0
    assert "euler characteristic: 0" in out


def test_hodge_bad_flags_exit_2(capsys):
    code, _, err = run(capsys, "hodge", "--n", "0", "--d", "5")
    assert code == 2


@pytest.mark.parametrize("n, d", [(1, 100_000_000), (100_000, 10)])
def test_hodge_past_its_series_budget_exits_3_at_once(capsys, n, d):
    start = time.perf_counter()
    code, out, err = run(capsys, "hodge", "--n", str(n), "--d", str(d))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not out
    assert "exceeds the budget of 4096" in err


def test_hodge_series_budget_edge(capsys):
    # d = 1 builds a one-coefficient series in n + 2 factors: the factors count too
    code, out, _ = run(capsys, "hodge", "--n", "4094", "--d", "1")
    assert code == 0 and "euler characteristic: 4095" in out
    code, _, err = run(capsys, "hodge", "--n", "4095", "--d", "1")
    assert code == 3 and "(1 coefficients, 4097 factors)" in err


def test_corpus_filter_segre(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "segre")
    assert code == 0
    assert "segre-cubic" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_corpus_filter_no_match_exits_2(capsys):
    code, _, err = run(capsys, "corpus", "--filter", "nosuchfixture")
    assert code == 2
    assert err == "error: no fixture matches 'nosuchfixture'\n"


def test_corpus_filter_quintic_passes_four_fixtures(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "quintic")
    assert code == 0
    assert "4 fixtures PASS" in out
    assert "sextic" not in out


def test_corpus_mismatch_exits_1(capsys, monkeypatch):
    import dataclasses

    import hyperdefect.fixtures as fixtures

    broken = dataclasses.replace(fixtures.get_fixture("segre-cubic"), defect=4)
    monkeypatch.setattr(fixtures, "FIXTURES", (broken,))
    code, out, _ = run(capsys, "corpus")
    assert code == 1
    assert "FAIL" in out
    assert "mismatches" in out


def test_defect_k2_json(capsys):
    code, out, _ = run(capsys, "defect", "--expr", SEGRE, "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplier"] == 2
    assert payload["gamma"] == 5
    assert payload["e2_dim"] == 0
    assert "ranks" in payload


def _run_child(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (PACKAGE_ROOT, env.get("PYTHONPATH")) if path
    )
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
    )


def _declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        scripts = tomllib.load(handle)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] in {PYPROJECT} declares no {name!r}"
    return scripts[name]


def test_console_script_is_installed():
    entry = _declared_console_script("hyperdefect")
    module, sep, attr = entry.partition(":")
    assert sep and module and attr.isidentifier(), f"malformed entry point {entry!r}"
    # The same wrapper installers write for a console script.
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'hyperdefect'\nsys.exit({attr}())\n"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("hyperdefect")
    if installed:
        commands.append([installed])
    for command in commands:
        result = _run_child([*command, "hodge", "--n", "3", "--d", "5"])
        assert result.returncode == 0, result.stderr
        assert "-200" in result.stdout, result.stderr
        result = _run_child([*command, "hodge", "--n", "0", "--d", "5"])
        assert result.returncode == 2, result.stderr


def test_module_entry_point():
    result = _run_child(
        [sys.executable, "-m", "hyperdefect", "hodge", "--n", "1", "--d", "3"]
    )
    assert result.returncode == 0, result.stderr
    assert "euler characteristic: 0" in result.stdout, result.stderr


def _rows(text):
    return [line.split() for line in text.splitlines()]


def test_hodge_table_script_runs():
    result = _run_child([sys.executable, str(SCRIPTS / "hodge_table.py"), "--max-degree", "6"])
    assert result.returncode == 0, result.stderr
    rows = _rows(result.stdout)
    assert ["5", "-200", "1", "101", "101", "1"] in rows, result.stdout
    assert ["6", "-516", "5", "255", "255", "5"] in rows, result.stdout
    assert len(rows) == 7, result.stdout  # header and d = 1..6


def test_hodge_table_script_errors_exit_without_a_traceback():
    script = str(SCRIPTS / "hodge_table.py")
    for n, code in (("5000", 3), ("0", 2)):
        result = _run_child([sys.executable, script, "--n", n, "--max-degree", "3"])
        assert result.returncode == code, result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


def test_prime_stability_script_runs():
    result = _run_child(
        [sys.executable, str(SCRIPTS / "prime_stability.py"), "--filter", "segre"]
    )
    assert result.returncode == 0, result.stderr
    rows = _rows(result.stdout)
    assert rows[0][:4] == ["segre-cubic", "windows=5", "defects=[5]", "expected=5"], result.stdout
    assert rows[0][-1] == "stable" and rows[1:] == [["all", "stable"]], result.stdout


def test_prime_stability_script_refuses_a_bad_window_or_selection():
    script = str(SCRIPTS / "prime_stability.py")
    for argv in (["--window", "0"], ["--window", "11"], ["--window", "-1"], ["--filter", "nomatch"]):
        result = _run_child([sys.executable, script, *argv])
        assert result.returncode == 2, (argv, result.stdout, result.stderr)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, argv
        assert "Traceback" not in result.stderr and not result.stdout, argv


def test_piece_timing_script_runs():
    script = str(SCRIPTS / "piece_timing.py")
    result = _run_child([sys.executable, script, "segre-cubic", "--k", "3"])
    assert result.returncode == 0, result.stderr
    rows = _rows(result.stdout)
    assert rows[1] == ["block", "shape", "ranks", "exact", "seconds", "max_rss_mb"], result.stdout
    assert rows[2][:4] == ["full", "75x75", "60,60,60", "60"], result.stdout
    assert rows[3] == ["wedge_high", "75x70", "60,60,60", "60", "full", "full"], result.stdout
    assert rows[4][:4] == ["wedge_low", "0x5", "0,0,0", "0"], result.stdout
    for row in (rows[2], rows[4]):
        assert float(row[4]) >= 0 and float(row[5]) > 0, result.stdout
    for argv in (["nowhere", "--k", "3"], ["segre-cubic", "--k", "1"], ["segre-cubic", "--k", "3", "--primes", "0"]):
        result = _run_child([sys.executable, script, *argv])
        assert result.returncode == 2, (argv, result.stderr)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, argv


def test_ab_inprocess_script_compares_a_checkout_with_itself():
    root = str(PYPROJECT.parent)
    result = _run_child(
        [sys.executable, str(SCRIPTS / "ab_inprocess.py"), root, root,
         "--workload", "sextic-285-p1", "--passes", "1"]
    )
    assert result.returncode == 0, result.stderr
    rows = _rows(result.stdout)
    assert rows[0] == ["input", "base_s", "change_s", "ratio"], result.stdout
    assert rows[1][0] == "sextic-285-nodes" and len(rows) == 3, result.stdout
    assert result.stdout.splitlines()[-1].startswith("per-pass ratio change/base: median ")
    assert "over 1 passes, 1 inputs each, byte-identical JSON" in result.stdout
    # the second table, on stderr: each side's tracemalloc peak in the warm-up pass
    peaks = _rows(result.stderr)
    assert peaks[0] == ["input", "base_mb", "change_mb", "ratio"], result.stderr
    assert peaks[1][0] == "sextic-285-nodes" and len(peaks) == 5, result.stderr
    base, change, ratio = map(float, peaks[1][1:])
    assert base > 1 and change > 1 and ratio == pytest.approx(change / base, rel=0.01)
    assert 0.8 < ratio < 1.25  # one checkout against itself
    # then each side's p50 and p90 over all its timed samples: here one
    # sample a side, which is the input's median in the first table
    assert peaks[2] == ["latency", "base_s", "change_s", "ratio"], result.stderr
    assert [row[0] for row in peaks[3:]] == ["p50", "p90"], result.stderr
    for row in peaks[3:]:
        base, change, ratio = map(float, row[1:])
        assert [base, change] == pytest.approx(list(map(float, rows[1][1:3])), abs=1e-4)
        assert ratio == pytest.approx(change / base, rel=0.01)


def test_raw_report_shows_disagreeing_primes(capsys):
    # mod 3 the Fermat cubic surface's blocks lose rank: 0, 0, 10 against 4, 56, 60
    code, out, _ = run(
        capsys, "defect", "--expr", "x^3+y^3+z^3+u^3", "--vars", "x,y,z,u",
        "--prime-list", "2,3,5",
    )
    assert code == 0
    assert "rank details:" in out
    assert "3:0  5:4  consensus=4  DISAGREE" in out
    assert "warning: per-prime ranks disagree" in out
