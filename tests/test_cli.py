import hashlib
import json
import time
from pathlib import Path

import pytest

from yangbaxter.cli import build_parser, main
from yangbaxter.fields import Field
from yangbaxter.matio import loads_matrix
from yangbaxter.matrices import Matrix, jordan_block, jordan_matrix, nilpotent_block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_solution(rat, write_matrix, capsys):
    a = write_matrix(nilpotent_block(rat, 2))
    x = write_matrix(Matrix.from_rows(rat, [[1, 5], [0, 0]]))
    code, out, _ = run(capsys, "verify", "--A", a, "--X", x)
    assert code == 0 and "is_solution: True" in out


def test_verify_non_solution_exits_one(rat, write_matrix, capsys):
    a = write_matrix(jordan_block(rat, 1, 2))
    x = write_matrix(Matrix.identity(rat, 2))
    code, out, _ = run(capsys, "verify", "--A", a, "--X", x)
    assert code == 1 and "is_solution: False" in out
    assert "[0 1; 0 0]" in out


def test_verify_malformed_exits_two(tmp_path, rat, write_matrix, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    x = write_matrix(Matrix.identity(rat, 2))
    code, _, err = run(capsys, "verify", "--A", str(bad), "--X", x)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("p, expected", [(2**61 - 1, 0), (2**89 - 1, 2)])
def test_verify_over_a_large_prime_field(tmp_path, capsys, p, expected):
    """A 61-bit prime is decided at once; a modulus beyond the bound of the
    deterministic primality test is a bad invocation, from a matrix file or
    from --field."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": f"gf:{p}", "rows": [["3"]]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "--A", str(path), "--X", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == expected
    if expected == 2:
        assert "too large" in err
        assert run(capsys, "census", "--field", f"gf:{p}", "--jordan", "1^1")[0] == 2


FILE_ERRORS = {
    "gens-missing": ("groebner", "--gens", "{tmp}/missing.json"),
    "gens-invalid-json": ("groebner", "--gens", "{tmp}/invalid.json"),
    "gens-no-generators": ("groebner", "--gens", "{tmp}/no_generators.json"),
    "gens-list": ("groebner", "--gens", "{tmp}/list.json"),
    "gens-not-utf8": ("groebner", "--gens", "{tmp}/latin1.json"),
    "matrix-not-utf8": ("verify", "--A", "{tmp}/latin1.json", "--X", "{tmp}/latin1.json"),
    "matrix-field-not-a-field": ("verify", "--A", "{tmp}/gf6.json", "--X", "{tmp}/gf6.json"),
    "out-directory": ("families", "--out", "{tmp}"),
    "out-missing-directory": ("families", "--out", "{tmp}/nowhere/out.txt"),
    "out-coefficient-directory": ("construct", "--family", "ex2", "--param", "a=0",
                                  "--param", "b=1", "--param", "alpha=1",
                                  "--out-coefficient", "{tmp}"),
    "out-coefficient-missing-directory": ("construct", "--family", "ex2", "--param", "a=0",
                                          "--param", "b=1", "--param", "alpha=1",
                                          "--out-coefficient", "{tmp}/nowhere/a.json"),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_exit_two(tmp_path, capsys, case):
    """Unreadable, malformed or unwritable files are bad invocations, not tracebacks."""
    (tmp_path / "invalid.json").write_text('{\n  "variables": ["x"],\n')
    (tmp_path / "no_generators.json").write_text(json.dumps({"variables": ["x"]}))
    (tmp_path / "list.json").write_text(json.dumps(["x - 1"]))
    (tmp_path / "gf6.json").write_text(json.dumps({"field": "gf:6", "rows": [["1"]]}))
    (tmp_path / "latin1.json").write_bytes('{"field": "rat", "rows": [["\u00e9"]]}'.encode("latin-1"))
    argv = [arg.format(tmp=tmp_path) for arg in FILE_ERRORS[case]]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err
    if case == "gens-invalid-json":
        assert "(line 3, column 1)" in err


CONFLICTING_OPTIONS = {
    "gens-beside-ideal": ("groebner", "--ideal", "ybe", "--jordan", "0^3",
                          "--gens", "{tmp}/gens.json"),
    "matrix-beside-jordan": ("census", "--field", "gf:2", "--jordan", "0^2",
                             "--A", "{tmp}/a.json"),
}


@pytest.mark.parametrize("case", CONFLICTING_OPTIONS)
def test_conflicting_options_exit_two(tmp_path, capsys, case):
    """A well-formed file given beside the option it would conflict with is a
    usage error that argparse rejects, not an input that is ignored."""
    (tmp_path / "gens.json").write_text(json.dumps({"variables": ["x"], "generators": ["x"]}))
    (tmp_path / "a.json").write_text(json.dumps({"field": "gf:2", "rows": [["1", "1"],
                                                                         ["0", "1"]]}))
    argv = [arg.format(tmp=tmp_path) for arg in CONFLICTING_OPTIONS[case]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_groebner_gens_beside_jordan_exits_two(tmp_path, capsys):
    """--jordan belongs to --ideal ybe; beside --gens it would be ignored,
    so the pair is a bad invocation, refused before any basis is printed."""
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"variables": ["x"], "generators": ["x"]}))
    code, out, err = run(capsys, "groebner", "--gens", str(gens), "--jordan", "0^3")
    assert code == 2 and out == "" and "--jordan" in err


def test_construct_family_and_alias(capsys):
    code, out, _ = run(capsys, "construct", "--family", "ex1",
                       "--param", "lam=1", "--param", "branch=plus",
                       "--param", "a=4")
    assert code == 0
    m = loads_matrix(out)
    rat = Field.rationals()
    assert m == Matrix.from_rows(rat, [[3, 4], [-1, -1]])


@pytest.mark.parametrize("alias, params, message", [
    ("ex1", ["branch=plus"], "family 'jordan2-invertible' needs parameter lam"),
    ("ex2", ["a=0", "alpha=1"], "family 'jordan2-nilpotent' needs parameter b"),
    ("examplenilpotent", ["n=4", "b=1,2", "alpha=1"],
     "family 'nilpotent-general' needs parameter a"),
    ("two-block", ["lam=1", "k=2"], "family 'two-block-offdiag' needs parameter z"),
])
def test_construct_missing_parameter_exits_two(capsys, alias, params, message):
    argv = ["construct", "--family", alias]
    for param in params:
        argv += ["--param", param]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_construct_side_condition_exits_two(capsys):
    code, _, err = run(capsys, "construct", "--family", "ex2",
                       "--param", "a=1", "--param", "b=1", "--param", "alpha=0")
    assert code == 2 and "ab=0" in err


@pytest.mark.parametrize("argv, message", [
    (("construct", "--family", "nilpotent-general", "--param", "n=²",
      "--param", "a=1,2", "--param", "b=1,2", "--param", "alpha=1"),
     "parameter n needs a positive integer"),
    (("census", "--field", "gf:2", "--jordan", "0^²"), "bad block size in '0^²'"),
])
def test_superscript_digit_exits_two(capsys, argv, message):
    """str.isdigit accepts a superscript digit that int() refuses: that
    must be a bad invocation with one error line, not a traceback."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_construct_commuting(capsys):
    code, out, _ = run(capsys, "construct", "--family", "commuting",
                       "--param", "n=3", "--param", "variant=with_B",
                       "--param", "alpha=2", "--param", "beta=5")
    assert code == 0
    assert loads_matrix(out).nrows == 4


def test_construct_over_gf(capsys):
    code, out, _ = run(capsys, "construct", "--family", "ex3", "--field", "gf:5",
                       "--param", "a=1", "--param", "b=1", "--param", "c=0",
                       "--param", "f=1", "--param", "i=4")
    assert code == 0
    assert loads_matrix(out).field == Field.gf(5)


def test_construct_over_quadratic_extension(capsys):
    code, out, _ = run(capsys, "construct", "--family", "ex1", "--field", "quad:2",
                       "--param", "lam=1", "--param", "branch=plus", "--param", "a=2")
    assert code == 0
    m = loads_matrix(out)
    assert m.field == Field.quadratic(2)
    assert str(m[0, 0]) == "1+1*s"


def test_construct_pencil_from_files(rat, write_matrix, capsys):
    a = write_matrix(jordan_matrix(rat, [(0, 3), (2, 2)]))
    x = write_matrix(Matrix.zero(rat, 5))
    m = write_matrix(Matrix.unit(rat, 5, 5, 0, 2))
    code, out, _ = run(capsys, "construct", "--family", "pencil",
                       "--param", f"A={a}", "--param", f"X={x}",
                       "--param", f"M={m}", "--param", "alpha=7")
    assert code == 0
    built = loads_matrix(out)
    assert built == Matrix.unit(rat, 5, 5, 0, 2).scale(rat.scalar(7))


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_construct_encodes_only_the_output_it_prints(capsys, monkeypatch, extra):
    """The matrix text and the --json payload are each encoded only for
    the output that prints them."""
    from yangbaxter import matio

    seen = []
    encode = matio.dumps_json
    monkeypatch.setattr(matio, "dumps_json", lambda value: seen.append(value) or encode(value))
    code, out, _ = run(capsys, "construct", "--family", "ex1", "--param", "lam=1",
                       "--param", "branch=plus", "--param", "a=4", *extra)
    assert (code, len(seen)) == (0, 1)
    assert out == encode(seen[0]) + "\n"


@pytest.mark.parametrize("k, field", [(400, "rat"), (2, "gf:5")])
def test_construct_two_block_checks_s_before_building(capsys, monkeypatch, write_matrix,
                                                       k, field):
    """An S of the wrong size or field is refused before the k x k Jordan
    block is built or anything is inverted."""
    from yangbaxter import families

    s = write_matrix(Matrix.identity(Field.from_spec(field), 2))
    monkeypatch.setattr(families, "jordan_block", None)  # a call would raise TypeError
    monkeypatch.setattr(Matrix, "inverse", None)
    assert run(capsys, "construct", "--family", "two-block", "--param", "lam=1",
               "--param", f"k={k}", "--param", "z=1", "--param", f"s={s}") == \
        (2, "", f"error: S must be a {k}x{k} matrix over rat\n")


def test_families_listing(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0 and "jordan2-invertible" in out and "ex1" in out
    code, out, _ = run(capsys, "families", "--json")
    doc = json.loads(out)
    assert any(f["name"] == "two-block-offdiag" for f in doc["families"])


def test_census_counts_and_exit(capsys):
    code, out, _ = run(capsys, "census", "--jordan", "0^2", "--field", "gf:3")
    assert code == 0 and "total: 15" in out
    code, out, _ = run(capsys, "census", "--jordan", "1^2", "--field", "gf:2")
    assert code == 0 and "total: 4" in out and "0 failed" in out
    code, out, _ = run(capsys, "enumerate", "--jordan", "0^4", "--field", "gf:2",
                       "--commuting")
    assert code == 0 and "total: 8" in out


def test_census_budget_exits_two(capsys):
    code, _, err = run(capsys, "census", "--jordan", "0^4", "--field", "gf:3",
                       "--budget", "100")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_census_budget_below_one_rejected_at_parsing(capsys, budget):
    """A budget below 1 is a usage error, not a census that exceeds it."""
    with pytest.raises(SystemExit) as exc:
        main(["census", "--jordan", "0^4", "--field", "gf:2", "--budget", budget])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --budget: must be at least 1, not {budget}" in captured.err
    assert "exceed" not in captured.err


def test_census_int64_guard_exits_two(capsys):
    code, out, err = run(capsys, "census", "--jordan", "1^1", "--field", "gf:4294967311",
                         "--budget", str(10 ** 10))
    assert code == 2 and out == "" and "int64" in err


def test_census_prime_above_the_screen_block(capsys):
    """GF(3,000,017) has more residues than a screen block holds, so the
    range of the one digit is split across blocks; and (p - 1)^3 overflows
    int64, so an A*A*X not reduced mod p in between would wrap."""
    code, out, err = run(capsys, "census", "--field", "gf:3000017",
                         "--jordan", "3000016^1", "--solutions")
    assert code == 0 and err == ""
    assert "total: 2" in out
    assert out.splitlines()[-2:] == ["[0]", "[3000016]"]


@pytest.mark.parametrize("field, jordan, code, total, digest", [
    ("gf:2", "0^5", 0, 352, "68fc44f02ce2be57d2bcb773d8ace127a31a397ede91f64dc97ae75049843c38"),
    ("gf:3", "0^4", 0, 891, "43b8c1d530fa143ac8a53aa3af89e2fd37148aeb4ed616b47d340d5872c67fd1"),
    ("gf:3", "1^4", 0, 83, "33ddac5f4fbc220c6679ed3447b27d9480622768a67c34871860752618894d39"),
    ("gf:3", "1^2,1^2", 1, 839, "c6458ab21f4776208dd898fb62f3e9ae91a417cc205fa9e72cff41137b4138d1"),
    ("gf:7", "1^3", 0, 51, "a5f154193276362891e4fd9bd248eb63a1fb91b306d26047751c1ec55f7c03d8"),
])
def test_census_golden_beyond_the_default_budget(capsys, field, jordan, code, total, digest):
    """Censuses of 3.4e7 to 4.3e7 candidates, recorded with a
    screen of every candidate: exit code, total and the sha256 of the
    --json output."""
    got, out, _ = run(capsys, "census", "--field", field, "--jordan", jordan,
                      "--budget", "100000000", "--json")
    assert (got, json.loads(out)["total"]) == (code, total)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, rows, extra, digest", [
    ("gf:3", [[1, 0], [0, 2]], (),
     "fc63ca67d11ac78a83d2597096337c46106d924ff15f7fd5a276314120e8607e"),
    ("gf:3", [[1, 0], [0, 2]], ("--json",),
     "6e2a8b3e49783b0ef3e1ba9208ea5bacdcbbba9c5c173f0d04fd3f51c9d2678b"),
    ("gf:2", [[1, 1], [0, 0]], (),
     "beeaca385ca023cccadb9cfd8be2a9076d1fcef247e40132ecfedd802ffd8c16"),
    ("gf:2", [[1, 1], [0, 0]], ("--json",),
     "38f4d8567c98eb965623c9114638c3bce872eb86c56ac22198743ba7341e8578"),
])
def test_census_of_a_coefficient_file_is_pinned(capsys, write_matrix, spec, rows, extra, digest):
    """A census of --A has no block structure: no family tags, kernels
    labelled by dimension, and a sweep without the spectral batch. Exit
    code and the sha256 of stdout are pinned."""
    a = write_matrix(Matrix.from_rows(Field.from_spec(spec), rows))
    code, out, err = run(capsys, "census", "--field", spec, "--A", a, *extra)
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)
    assert "family_tallies" not in out and "dim=" in out


def test_census_refuses_the_budget_before_building_a_basis(capsys, monkeypatch):
    """Every basis has at least n elements, n^2 in full and dim C(A) >= n
    for a centralizer, so p^n above the budget refuses a census before its
    basis is built: no centralizer basis for a 64 x 64 block. The refusal is
    decided from the block structure's dimension, before its Jordan matrix
    is built, and without building p^(n^2): a count too long for decimal is
    written p^k."""
    from yangbaxter import cli, matrices, oracle

    for module, name in ((oracle, "centralizer_basis"), (cli, "jordan_matrix"),
                         (oracle, "jordan_matrix"), (matrices, "jordan_block")):
        monkeypatch.setattr(module, name, None)  # a call would raise TypeError
    code, out, err = run(capsys, "census", "--field", "gf:2", "--jordan", "0^64", "--commuting")
    assert (code, out) == (2, "")
    assert err == f"error: at least {2 ** 64} centralizer candidates exceed the budget of {10 ** 7}\n"
    code, out, err = run(capsys, "census", "--field", "gf:2", "--jordan", "0^64")
    assert (code, out) == (2, "")
    assert err == f"error: {2 ** 4096} candidates exceed the budget of {10 ** 7}\n"
    for argv, err_line in [
        (["--jordan", "0^120"], "2^14400 candidates exceed the budget of 10000000"),
        (["--jordan", "0^120", "--budget", "5"], "2^14400 candidates exceed the budget of 5"),
        (["--jordan", "0^100000"], "2^10000000000 candidates exceed the budget of 10000000"),
        (["--jordan", "0^100000", "--commuting"],
         "at least 2^100000 centralizer candidates exceed the budget of 10000000"),
    ]:
        assert run(capsys, "census", "--field", "gf:2", *argv) == (2, "", f"error: {err_line}\n")
    code, out, err = run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^100000")
    assert (code, out, err) == (2, "", "error: scale guard: n*n must stay at or below 16\n")


def test_census_json_round_trips(capsys):
    from yangbaxter.matio import census_from_json

    code, out, _ = run(capsys, "census", "--jordan", "0^2", "--field", "gf:2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    rep = census_from_json(doc)
    assert rep.total == 6
    assert doc["theorem_checks"]["failed"] == 0


@pytest.mark.parametrize("extra, calls", [((), 0), (("--json",), 1)])
def test_census_builds_its_payload_only_for_json(capsys, monkeypatch, extra, calls):
    """The text census never reads the census/1 payload, so it never builds it."""
    from yangbaxter import matio

    seen = []
    build = matio.dumps_census
    monkeypatch.setattr(matio, "dumps_census", lambda rep, **extra: seen.append(rep)
                        or build(rep, **extra))
    code, _, _ = run(capsys, "census", "--jordan", "0^2", "--field", "gf:2", *extra)
    assert (code, len(seen)) == (0, calls)


def test_census_single_block_sweep_runs_no_elimination(capsys, monkeypatch):
    """The single-block classification certifies each nonzero solution by a
    Jordan chain, which is invertible by construction: no rank is taken."""
    seen = []
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: seen.append(m) or rank(m))
    code, out, _ = run(capsys, "census", "--jordan", "1^3", "--field", "gf:5")
    assert code == 0 and "total: 27" in out
    assert seen == []


def test_sylvester_cli(rat, write_matrix, capsys):
    a = write_matrix(Matrix.from_rows(rat, [[1]]))
    b = write_matrix(Matrix.from_rows(rat, [[1]]))
    c = write_matrix(Matrix.from_rows(rat, [[4]]))
    code, out, _ = run(capsys, "sylvester", "--A", a, "--B", b, "--C", c)
    assert code == 0 and "unique_for_every_rhs: True" in out and "[2]" in out

    bneg = write_matrix(Matrix.from_rows(rat, [[-1]]))
    czero = write_matrix(Matrix.from_rows(rat, [[0]]))
    code, out, _ = run(capsys, "sylvester", "--A", a, "--B", bneg, "--C", czero)
    assert code == 0 and "kernel_dimension: 1" in out


def test_sylvester_random_unique_instance(rat, write_matrix, capsys):
    a = write_matrix(jordan_block(rat, 1, 2))
    b = write_matrix(-jordan_block(rat, 2, 2))
    c = write_matrix(Matrix.from_rows(rat, [[1, 2], [3, 4]]))
    code, out, _ = run(capsys, "sylvester", "--A", a, "--B", b, "--C", c, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["unique_for_every_rhs"] is True
    x = loads_matrix(json.dumps(doc["particular"]))
    rat_field = Field.rationals()
    a_m = jordan_block(rat_field, 1, 2)
    b_m = -jordan_block(rat_field, 2, 2)
    c_m = Matrix.from_rows(rat_field, [[1, 2], [3, 4]])
    assert (a_m * x + x * b_m - c_m).is_zero


SYLVESTER_SYSTEMS = {
    "rat_unique": ("rat", [[1, 1], [0, 1]], [[-2, -1], [0, -2]], [[1, 2], [3, 4]]),
    "rat_homogeneous": ("rat", [[1, 1], [0, 1]], [[-1, -1], [0, -1]], [[0, 0], [0, 0]]),
    "rat_inconsistent": ("rat", [[1]], [[-1]], [[1]]),
    "quad2_unique": ("quad:2", [["1*s", "1"], ["0", "1"]], [["1", "1*s"], ["0", "2"]],
                     [["1", "1*s"], ["1/2", "0"]]),
}


@pytest.mark.parametrize("extra", [(), ("--json",)])
@pytest.mark.parametrize("system, expected_code", [
    ("rat_unique", 0), ("rat_homogeneous", 0), ("rat_inconsistent", 1), ("quad2_unique", 0),
])
def test_sylvester_cli_golden(write_matrix, capsys, system, expected_code, extra):
    """Stdout and exit code match, byte for byte, those recorded when the
    solver reduced the lift twice and uniqueness came from char_poly gcds."""
    spec, *rows = SYLVESTER_SYSTEMS[system]
    field = Field.from_spec(spec)
    a, b, c = (write_matrix(Matrix.from_rows(field, [[field.parse(str(v)) for v in row]
                                                     for row in m])) for m in rows)
    code, out, err = run(capsys, "sylvester", "--A", a, "--B", b, "--C", c, *extra)
    golden = f"sylvester_{system}{'_json' if extra else ''}.txt"
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert (code, out, err) == (expected_code, expected, "")


def test_groebner_cli_ybe(capsys):
    code, out, _ = run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^3",
                       "--probe", "d^2", "--probe", "af+bi")
    assert code == 0
    assert "normal_form(d^2) = 0" in out
    assert "normal_form(af+bi) = e" in out


def test_groebner_cli_gens_file(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({
        "variables": ["x", "y", "z"],
        "generators": ["x - y", "y - z"],
    }))
    code, out, _ = run(capsys, "groebner", "--gens", str(gens))
    assert code == 0 and "x - z" in out and "y - z" in out


def test_groebner_cli_zero_denominator_exits_two(tmp_path, capsys):
    """A zero denominator in a generator or a probe is a bad invocation."""
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"variables": ["x"], "generators": ["3/0*x"]}))
    assert run(capsys, "groebner", "--gens", str(gens)) == (
        2, "", "error: zero denominator in '3/0*x'\n")
    assert run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^2",
               "--probe", "1/0*a") == (2, "", "error: zero denominator in '1/0*a'\n")


def test_groebner_cli_order_override(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({
        "variables": ["x", "y"],
        "generators": ["x - y^2"],
    }))
    code, out, _ = run(capsys, "groebner", "--gens", str(gens),
                       "--order", "lex:y,x")
    assert code == 0 and "y^2 - x" in out


def test_groebner_pair_cap_exits_two(capsys):
    code, _, err = run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^3",
                       "--pair-cap", "2")
    assert code == 2 and "cap" in err


def test_groebner_negative_pair_cap_rejected_at_parsing(capsys):
    """A negative pair cap is a usage error, not a cap that was exceeded."""
    with pytest.raises(SystemExit) as exc:
        main(["groebner", "--ideal", "ybe", "--jordan", "0^3", "--pair-cap", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --pair-cap: must be at least 0, not -1" in captured.err
    assert "exceeded" not in captured.err


@pytest.mark.parametrize("jordan, golden", [
    ("1^3", "groebner_ybe_1_3.txt"),
    ("0^2,1^1", "groebner_ybe_0_2_1_1.txt"),
])
def test_groebner_cli_golden(capsys, jordan, golden):
    """Stdout matches, byte for byte, files recorded with the pair-scan
    Buchberger that predates the pair heap; it took about 2 minutes for
    1^3, which now takes under half a second."""
    code, out, err = run(capsys, "groebner", "--ideal", "ybe", "--jordan", jordan,
                         "--probe", "d^2", "--probe", "af+bi")
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert (code, out, err) == (0, expected, "")


GROEBNER_GENS = {
    "fractional": {"variables": ["x", "y"],
                   "generators": ["1/2*x^2 - 3/4*y", "2/3*x*y - 1"]},
    "high-degree": {"variables": ["x", "y"], "generators": ["x^500*y - 1", "y^2 - x"]},
}
BENCH_PROBES = ("--probe", "d^2", "--probe", "e^4", "--probe", "g^2", "--probe", "h^2",
                "--probe", "af+bi")
GROEBNER_PINS = [
    (("--ideal", "ybe", "--jordan", "0^3", "--json", *BENCH_PROBES),
     "e329c5fc43948a99560b6591b87bf43f24b4c46ace4187983629e77792e88d3f"),
    (("--ideal", "ybe", "--jordan", "0^2,1^1", "--json"),
     "41000ef0ecd8f125e979c52d174bf271c7f2ad3ee6fe58ad65f11c5f11ac859e"),
    (("--ideal", "ybe", "--jordan", "2^2"),
     "0dfec311f9912c2508bc1fdd3217e0e5ec9b93c433db5593cd2413a37071a218"),
    (("--ideal", "ybe", "--jordan", "1/2^2,1/3^1", "--json"),
     "24569dd7a5c35962fa89b146c6cbe5439a4219eaad7c63df6bde7d2ddc2a4932"),
    (("--ideal", "ybe", "--jordan", "0^3", "--order", "lex:e,a,b,c,d,f,g,h,i",
      "--probe", "af+bi"),
     "aa011ae43d9097637236ca8f8719dc56111520e406e45cfe605ae146f4dea989"),
    (("--gens", "{fractional}", "--probe", "x", "--probe", "x*y", "--probe", "x^3 + 1/5*y"),
     "6d3058a23182cca1e5954bd9b9848cf474baae3fea73dae856ac282146aabc6b"),
    (("--gens", "{fractional}", "--json", "--probe", "x^3 + 1/5*y"),
     "6d5694be7c26ab4c4d750d3be219891194feb14d59065870c5c212b0b7472d44"),
    (("--gens", "{high-degree}", "--probe", "x^400*y"),
     "3e0a1e33407f24c8497a4ff6b7012b1d5ff01a98f2069f6f83ce532f5ab3c410"),
]


@pytest.mark.parametrize("argv, digest", GROEBNER_PINS,
                         ids=[" ".join(argv) for argv, _ in GROEBNER_PINS])
def test_groebner_output_is_pinned(tmp_path, capsys, argv, digest):
    """Exit code 0, empty stderr and the sha256 of stdout match those
    recorded with the exponent-tuple engine: the benchmark's invocations,
    a nonzero eigenvalue, non-integral eigenvalues, an order override,
    non-integral coefficients (the probe x^3 + 1/5*y has normal form
    1/5*y + 9/4) and exponents in the hundreds."""
    paths = {}
    for name, doc in GROEBNER_GENS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code, out, err = run(capsys, "groebner", *(arg.format(**paths) for arg in argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


@pytest.mark.parametrize("generators, code, expected", [
    (["x^32767 - y"], 0, "reduced basis:\n  x^32767 - y\n"),
    (["x^32768 - y"], 2, "error: exponents must lie in 0..32767\n"),
    (["x^20000*x^20000"], 2, "error: exponents must lie in 0..32767\n"),
    (["x + y^30000", "x*y^5000"], 2, "error: exponents must lie in 0..32767\n"),
])
def test_groebner_exponent_limit(tmp_path, capsys, generators, code, expected):
    """An exponent may reach 32767, the most a packed field holds; one past
    it, in the input or in an S-polynomial's product (y^5000 times
    y^30000), exits 2 with the limit named."""
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"variables": ["x", "y"], "generators": generators}))
    got_code, out, err = run(capsys, "groebner", "--gens", str(gens))
    assert (got_code, out if code == 0 else err) == (code, expected)


@pytest.mark.parametrize("field, extra, golden", [
    ("gf:2", (), "census_gf2_1_2_1_2.txt"),
    ("gf:3", ("--commuting",), "census_gf3_1_2_1_2_commuting.txt"),
])
def test_census_cli_golden(capsys, field, extra, golden):
    """The full-space and the centralizer census reproduce recorded stdout
    byte for byte; the theorem sweep finds failures, so the exit code is 1."""
    code, out, err = run(capsys, "census", "--field", field, "--jordan", "1^2,1^2",
                         *extra, "--solutions")
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert (code, out, err) == (1, expected, "")


@pytest.mark.parametrize("field, jordan", [
    ("gf:3", "0^2"), ("gf:5", "3^2"), ("gf:3", "0^3"), ("gf:2", "0^4"),
    ("gf:2", "1^2,1^2"), ("gf:5", "1^1,1^1"), ("gf:3", "2^1,2^1"), ("gf:7", "3^1,3^1"),
])
def test_census_family_tags_golden(capsys, field, jordan):
    """Family tags and tallies match, entry for entry, those recorded when
    the census still classified single blocks with its own copies of the
    family formulas, and two equal blocks by re-checking the block
    equations of each shape. The sweep of two equal blocks finds kernels
    that mix the blocks, so those censuses exit 1."""
    code, out, _ = run(capsys, "census", "--field", field, "--jordan", jordan, "--json")
    doc = json.loads(out)
    golden = json.loads((Path(__file__).parent / "data" / "census_family_tags.json")
                        .read_text(encoding="utf-8"))[f"{field} {jordan}"]
    assert code == (1 if "," in jordan else 0)
    assert doc["family_tags"] == golden["family_tags"]
    assert doc["family_tallies"] == golden["family_tallies"]


def test_pencil_cli(rat, write_matrix, capsys):
    a = write_matrix(nilpotent_block(rat, 3))
    x0 = write_matrix(Matrix.unit(rat, 3, 3, 0, 0))
    x1 = write_matrix(Matrix.unit(rat, 3, 3, 0, 1))
    bad = write_matrix(Matrix.unit(rat, 3, 3, 1, 2))
    not_solution = write_matrix(Matrix.identity(rat, 3))

    code, out, _ = run(capsys, "pencil", "--A", a, "--X0", x0, "--X1", x1)
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "pencil", "--A", a, "--X0", x0, "--X1", bad)
    assert code == 1 and "witness" in out and "[0 0 1; 0 0 0; 0 0 0]" in out
    code, _, err = run(capsys, "pencil", "--A", a, "--X0", x0, "--X1", not_solution)
    assert code == 2


def test_centralizer_cli(rat, write_matrix, capsys):
    a = write_matrix(nilpotent_block(rat, 3))
    code, out, _ = run(capsys, "centralizer", "--A", a)
    assert code == 0 and "dimension: 3" in out

    a2 = write_matrix(jordan_matrix(rat, [(0, 3), (2, 2)]))
    code, out, _ = run(capsys, "centralizer", "--A", a2, "--annihilator")
    assert code == 0 and "dimension: 1" in out

    ident = write_matrix(Matrix.identity(rat, 2))
    code, out, _ = run(capsys, "centralizer", "--A", ident, "--annihilator")
    assert code == 0 and "dimension: 0" in out


def test_byte_identical_repeat_invocations(capsys):
    _, first, _ = run(capsys, "census", "--jordan", "0^3", "--field", "gf:2",
                      "--json")
    _, second, _ = run(capsys, "census", "--jordan", "0^3", "--field", "gf:2",
                       "--json")
    assert first == second
    _, f1, _ = run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^3")
    _, f2, _ = run(capsys, "groebner", "--ideal", "ybe", "--jordan", "0^3")
    assert f1 == f2


def test_parse_failure_leaves_the_next_call_unchanged(capsys):
    """Calls of main share one parser. A call that exits 2 while parsing,
    one of them after an appended option, changes nothing for the next."""
    census = ("census", "--jordan", "0^2", "--field", "gf:3")
    groebner = ("groebner", "--ideal", "ybe", "--jordan", "0^2")
    before = [run(capsys, *census), run(capsys, *groebner)]
    for bad in (("census", "--jordan", "0^4", "--field", "gf:2", "--budget", "-1"),
                ("groebner", "--ideal", "ybe", "--jordan", "0^2", "--probe", "a", "--probe")):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
    assert [run(capsys, *census), run(capsys, *groebner)] == before


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_output_to_file(tmp_path, rat, write_matrix, capsys):
    a = write_matrix(nilpotent_block(rat, 2))
    x = write_matrix(Matrix.from_rows(rat, [[1, 5], [0, 0]]))
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "verify", "--A", a, "--X", x, "--out", str(target))
    assert code == 0 and out == ""
    assert "is_solution: True" in target.read_text()


def test_stdin_matrix(rat, write_matrix, capsys, monkeypatch):
    import io

    x = write_matrix(Matrix.from_rows(rat, [[1, 5], [0, 0]]))
    from yangbaxter.matio import dumps_matrix

    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_matrix(nilpotent_block(rat, 2))))
    code, out, _ = run(capsys, "verify", "--A", "-", "--X", x)
    assert code == 0 and "is_solution: True" in out


CLI_CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json")
                        .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CLI_CORPUS, ids=[" ".join(c["argv"]) for c in CLI_CORPUS])
def test_cli_corpus_is_byte_identical(capsys, case):
    """Exit code and the sha256 of stdout and stderr match those recorded
    for a fixed corpus: every census of at most two Jordan blocks and
    dimension at most 3 over GF(2) and GF(3), full and commuting, the
    benchmark's census invocations, census refusals, the family catalog
    and constructions over rat, gf:5 and quad:2."""
    code, out, err = run(capsys, *case["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == (
        case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("spec", ["gf:2", "gf:3"])
@pytest.mark.parametrize("commuting", [(), ("--commuting",)])
def test_census_of_the_1x1_zero_block_holds(capsys, spec, commuting):
    """A = 0 is 1x1: every X solves, [1] included, so no claim fails."""
    code, out, _ = run(capsys, "census", "--field", spec, "--jordan", "0^1", *commuting)
    assert code == 0 and "FAIL" not in out


NUMPY_PROBE = """
import contextlib, io, json, sys
from yangbaxter.cli import build_parser, main

build_parser()
seen = {"import": "numpy" in sys.modules}
a, x = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["families"]), main(["verify", "--A", a, "--X", x]),
             main(["groebner", "--ideal", "ybe", "--jordan", "0^2"])]
    seen["exact"] = "numpy" in sys.modules
    codes.append(main(["census", "--field", "gf:2", "--jordan", "0^2"]))
seen["census"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_only_census_imports_numpy(rat, write_matrix):
    """In a fresh interpreter, the package, the parser and the exact
    commands leave numpy unimported; a census imports it."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    a = write_matrix(nilpotent_block(rat, 2))
    x = write_matrix(Matrix.from_rows(rat, [[1, 5], [0, 0]]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, a, x], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == {
        "codes": [0, 0, 0, 0], "seen": {"import": False, "exact": False, "census": True}}
