import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperdefect
from hyperdefect import ranks
from hyperdefect.cli import main
from hyperdefect.fixtures import FIXTURES
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


def test_defect_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "defect", "--input", "/nonexistent/f.terms")
    assert code == 2


def test_defect_exact_budget_exits_3(capsys):
    expr = "x*(x^4+y^4+z^4+u^4+v^4)+y*(x^4-2*y^4+3*z^4-4*u^4+5*v^4)"
    code, _, err = run(capsys, "defect", "--expr", expr, "--exact")
    assert code == 3
    assert "exceeds exact budget" in err


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


def test_rank_invariant_violation_exits_4(capsys, monkeypatch):
    real = ranks._echelon

    def one_pivot_too_many(matrix, p):
        profile, echelon = real(matrix, p)
        if matrix.rows == 0:  # the Segre cubic's wedge_low, 0x5
            profile += (len(profile),)
        return profile, echelon

    monkeypatch.setattr(ranks, "_echelon", one_pivot_too_many)
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


def test_corpus_skip_slow_passes_six_fixtures(capsys):
    code, out, _ = run(capsys, "corpus", "--skip-slow")
    assert code == 0
    assert "6 fixtures PASS" in out
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


def test_prime_stability_script_runs():
    result = _run_child(
        [sys.executable, str(SCRIPTS / "prime_stability.py"), "--filter", "segre"]
    )
    assert result.returncode == 0, result.stderr
    rows = _rows(result.stdout)
    assert rows[0][:4] == ["segre-cubic", "windows=5", "defects=[5]", "expected=5"], result.stdout
    assert rows[0][-1] == "stable" and rows[1:] == [["all", "stable"]], result.stdout
