import json
import shlex
from pathlib import Path

import pytest

from superchar import clear_caches, laurent, verify
from superchar.cli import main
from superchar.laurent import LaurentPoly
from superchar.schur import super_schur
from superchar.verify import cauchy_alphabets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_char_command(capsys):
    code, out = run_cli(
        capsys, "char", "--lambda", "2,1", "--x", "x1,x2", "--y", "y1"
    )
    assert code == 0
    poly = LaurentPoly.from_json_dict(json.loads(out))
    X, Y, _ = cauchy_alphabets(2, 1, 1)
    expected = super_schur((2, 1), X, Y)
    # same terms up to the table layout (the CLI table has no t variable)
    assert poly.eval_all_ones() == expected.eval_all_ones()
    assert len(poly) == len(expected)


def test_char_supports_constants_and_inverses(capsys):
    code, out = run_cli(
        capsys, "char", "--lambda", "1", "--x", "x1,1,x1^-1", "--y", "-1"
    )
    assert code == 0
    poly = LaurentPoly.from_json_dict(json.loads(out))
    assert poly.eval_all_ones() == 4


def test_char_exponent_past_16_bits_keeps_its_output(capsys):
    code, out = run_cli(capsys, "char", "--lambda", "40000", "--x", "a")
    assert code == 0
    assert out == '{"vars":["a"],"terms":[{"exp":[40000],"coeff":"1"}]}\n'


def test_char_past_the_exponent_field_exits_2(capsys, monkeypatch):
    # A narrow field makes the bound check reachable with a small input.
    monkeypatch.setattr(laurent, "EXPONENT_LIMIT", 30)
    clear_caches()
    with pytest.raises(SystemExit) as err:
        main(["char", "--lambda", "40", "--x", "a"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message.startswith("error: ") and "\n" not in message
    assert "field" in message


def test_char_tokens_starting_with_a_minus_attach_with_equals(capsys):
    # argparse reads a separate "-1,x1" as an option; "--x=-1,x1" keeps it a value.
    code, attached = run_cli(capsys, "char", "--lambda", "1", "--x=-1,x1")
    assert code == 0
    code, reordered = run_cli(capsys, "char", "--lambda", "1", "--x", "x1,-1")
    assert code == 0
    assert attached == reordered


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    """Each `superchar ...` line of README's CLI block, split, its comment dropped."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("superchar ")
    ]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    config = {"degmax": 2, "max_lambda_size": 2, "max_rank": 1, "t_count": 1, "seed": 0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert {argv[1] for argv in lines} == {"char", "fold", "lr", "weights", "verify", "suite"}
    for argv in lines:
        assert main(argv[1:]) == 0, argv


def test_lr_command(capsys):
    code, out = run_cli(capsys, "lr", "--lam", "2,1", "--mu", "1", "--nu", "1,1")
    assert code == 0
    assert out.strip() == "1"
    code, out = run_cli(
        capsys, "lr", "--lam", "2,1", "--mu", "1", "--nu", "1,1", "--json"
    )
    record = json.loads(out)
    assert record == {"lam": [2, 1], "mu": [1], "nu": [1, 1], "coefficient": 1}


def test_weights_command(capsys):
    code, out = run_cli(
        capsys, "weights", "--family", "B", "--r", "2", "--s", "1", "--lambda", "3,1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["highest_weight"] == [2, 2, 0]
    assert record["kac_dynkin"] == [4, 2, 0]
    assert record["finite_dimensional"] is True



@pytest.mark.parametrize("family, r", [("C", "7"), ("B0", "3")])
def test_weights_rejects_r_for_a_family_without_r(capsys, family, r):
    with pytest.raises(SystemExit) as err:
        main(["weights", "--family", family, "--r", r, "--s", "2"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message == f"error: --family {family} does not read --r"
    code, out = run_cli(capsys, "weights", "--family", family, "--s", "2")
    assert code == 0 and json.loads(out)["family"]


def test_weights_refuses_gl_0_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["weights", "--family", "gl"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message == "error: gl(0|0) is the empty algebra: the gl family needs r + s >= 1"


def test_weights_r_defaults_to_0(capsys):
    code, out = run_cli(capsys, "weights", "--family", "gl", "--s", "2", "--lambda", "1")
    assert code == 0
    _, explicit = run_cli(capsys, "weights", "--family", "gl", "--r", "0", "--s", "2",
                          "--lambda", "1")
    assert out == explicit

def test_fold_polynomial_and_report(capsys):
    code, out = run_cli(
        capsys, "fold", "--case", "B1", "--r", "1", "--s", "0", "--a", "1", "--m", "2", "--json"
    )
    assert code == 0
    poly = LaurentPoly.from_json_dict(json.loads(out))
    assert poly.eval_all_ones() == 5

    code, out = run_cli(
        capsys,
        "fold", "--case", "B1", "--r", "1", "--s", "0", "--a", "1", "--m", "2",
        "--branch", "B",
    )
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True


def test_verify_command(capsys):
    code, out = run_cli(
        capsys, "verify", "--check", "cauchy_plain", "--nx", "1", "--ny", "1",
        "--nt", "2", "--degmax", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True

    code, out = run_cli(capsys, "verify", "--check", "power_det", "--m", "3")
    assert code == 0

    code, out = run_cli(
        capsys, "verify", "--check", "ypair_to_square", "--lam", "2", "--nx", "1", "--ny", "1"
    )
    assert code == 0


def test_suite_command(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"degmax": 1, "max_lambda_size": 1, "max_rank": 1, "t_count": 1, "seed": 0}
        )
    )
    persist = tmp_path / "results"
    code, out = run_cli(
        capsys, "suite", "--config", str(config), "--persist", str(persist)
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(line["pass"] for line in lines)
    saved = list(persist.glob("suite-*.json"))
    assert len(saved) == 1
    assert saved[0].read_text() == out


def test_suite_persist_under_a_regular_file_exits_2_before_the_battery(
    tmp_path, capsys, monkeypatch
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda config: ran.append(config) or [])
    with pytest.raises(SystemExit) as err:
        main(["suite", "--degmax", "1", "--persist", str(blocker / "results")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran
    message = captured.err.strip()
    assert message.startswith("error: ") and "\n" not in message


def test_suite_byte_stable(tmp_path, capsys):
    args = ["suite", "--degmax", "1", "--max-lambda-size", "1", "--max-rank", "1", "--t-count", "1"]
    clear_caches()
    _, cold = run_cli(capsys, *args)
    _, warm = run_cli(capsys, *args)
    assert cold == warm


@pytest.mark.parametrize(
    "config",
    [{"degmax": "6"}, {"degmax": True}, {"degmax": 1.5}, {"parallelism": 1}, [1]],
)
def test_bad_suite_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(path)])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message.startswith("error: ") and "\n" not in message


@pytest.mark.parametrize("flag", ["--degmax", "--seed"])
def test_suite_config_with_a_field_flag_exits_2(tmp_path, capsys, flag):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"degmax": 1}))
    with pytest.raises(SystemExit) as err:
        main(["suite", "--config", str(path), flag, "3"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message.startswith("error: ") and "\n" not in message
    assert flag in message


def test_parallelism_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["suite", "--parallelism", "2"])
    assert err.value.code == 2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code, out = run_cli(
        capsys, "char", "--lambda", "1", "--x", "x1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["terms"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["lr", "--lam", "1,2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["char", "--lambda", "1,2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["char", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["fold", "--case", "D2", "--r", "0", "--a", "1", "--m", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    for argv in (
        ["char", "--x", "1x"],
        ["char", "--x", "x1,,x2"],
        ["verify", "--check", "cauchy_plain", "--nx", "-1"],
        ["verify", "--check", "plain_to_square", "--lam", "2", "--nx", "-2"],
        ["verify", "--check", "cauchy_plain", "--degmax", "-1"],
        ["verify", "--check", "schur_sum", "--degmax", "-2"],
        ["verify", "--check", "plain_to_square", "--nx", "1", "--ny", "1", "--lam", "2",
         "--xi", "-1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        message = capsys.readouterr().err.strip()
        assert message.startswith("error: ") and "\n" not in message, argv


def test_lr_deep_skew_shape_answers(capsys):
    code, out = run_cli(capsys, "lr", "--lam", "2400", "--mu", "1200", "--nu", "1200")
    assert code == 0
    assert out == "1\n"  # Pieri's rule


def test_char_on_a_very_long_column_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["char", "--lambda", ",".join(["1"] * 1200), "--x", "x", "--y", "y"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message.startswith("error: ") and "\n" not in message
    assert "too large" in message


def test_out_of_hook_fold_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fold", "--case", "A2_EE", "--r", "1", "--s", "0", "--a", "3", "--m", "1"])
    assert err.value.code == 2
    # Membership is decided from a and m alone; no a-row tuple is built.
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["fold", "--case", "B1", "--r", "1", "--a", "1000000000000", "--m", "2"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message == "error: rectangle 1000000000000 x 2 lies outside the [2,1] hook of B1"


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    from superchar import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_char", exhausted)  # looked up by build_parser
    with pytest.raises(SystemExit) as err:
        main(["char", "--lambda", "2", "--x", "x"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message == "error: input too large: out of memory"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--check", "cauchy_plain", "--xi", "-1"], "--xi"),
        (["--check", "power_det", "--degmax", "9"], "--degmax"),
        (["--check", "schur_sum", "--nx", "5", "--lam", "3,1"], "--nx, --lam"),
        (["--check", "plain_to_square", "--nt", "7"], "--nt"),
        (["--check", "power_det", "--m", "2", "--xi", "1"], "--xi"),
    ],
)
def test_verify_rejects_flags_its_check_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip()
    assert message == f"error: --check {argv[1]} does not read {flag}"


def test_verify_defaults_fill_the_flags_a_check_reads(capsys):
    code, out = run_cli(capsys, "verify", "--check", "littlewood_even_rows")
    assert code == 0
    assert json.loads(out)["params"] == {"kind": "littlewood_even_rows", "nT": 2, "degmax": 4}
    code, out = run_cli(capsys, "verify", "--check", "power_det")
    assert code == 0
    assert json.loads(out)["params"] == {"m": 2}
    code, out = run_cli(capsys, "verify", "--check", "xconst_to_angle_signed", "--xi", "-1")
    assert code == 0
    params = json.loads(out)["params"]
    assert params["lam"] == [] and params["x"] == ["x1"] and params["y"] == [] and params["xi"] == -1
