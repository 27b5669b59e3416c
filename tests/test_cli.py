import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legclus.bridge import rational_form_words
from legclus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_pair(capsys):
    code, out = run(capsys, "classify", "[3]", "[2,2]")
    assert code == 0
    assert "not isotopic (3/1 vs 3/2)" in out


def test_classify_isotopic(capsys):
    code, out = run(capsys, "classify", "[2,3]", "[3,2]")
    assert code == 0
    assert "isotopic" in out and "not isotopic" not in out


def test_augvar_count(capsys):
    code, out = run(capsys, "augvar", "[3,3]", "--char", "2", "--count")
    assert code == 0
    assert "9" in out and "MATCH" in out


def test_augvar_enumerate_json_roundtrip(capsys):
    code, out = run(capsys, "augvar", "[3]", "--char", "2", "--enumerate", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "legclus/1"
    assert data["count"] == 5 == len(data["points"])
    assert json.loads(json.dumps(data, sort_keys=True)) == data


def test_dga_output(capsys):
    code, out = run(capsys, "dga", "[2,2]")
    assert code == 0
    assert "d(a3) = a1*a2 + 1" in out
    assert "d(b1) = a1*a4 + t1" in out


def test_seed_dot(capsys):
    code, out = run(capsys, "seed", "[5,4]", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "shape=box" in out


def test_mutate(capsys):
    code, out = run(capsys, "mutate", "[5,4]", "--at", "1")
    assert code == 0
    assert "after mutations at [1]" in out


def test_seeds_count(capsys):
    code, out = run(capsys, "seeds", "[5,2]")
    assert code == 0
    assert "14 seeds" in out


def test_fillings_sequence(capsys):
    code, out = run(capsys, "fillings", "[2,2]", "--sequence", "1,4")
    assert code == 0
    assert "t1 = s1*s2" in out


def test_fillings_census(capsys):
    code, out = run(capsys, "fillings", "[5,4]")
    assert code == 0
    assert "70" in out


def test_rulings_report(capsys):
    code, out = run(capsys, "rulings", "[5,4]")
    assert code == 0
    assert "15" in out
    assert "PASS" in out


def test_verify(capsys):
    code, out = run(capsys, "verify", "[3,3]")
    assert code == 0
    assert "FAIL" not in out


def test_verify_fan_seed_with_two_crossing_blocks(capsys):
    # blocks of at most two crossings give unit frozen vertices, which the
    # fan-seed comparison drops on both sides
    code, out = run(capsys, "verify", "2,2,2,2")
    assert code == 0
    assert "[PASS] fan seed matches initial seed" in out and "FAIL" not in out
    code, out = run(capsys, "verify", "2,2,2,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["checks"]["fan seed matches initial seed"]
    assert data["skipped"] == []


def test_verify_skipped_census_is_not_a_pass(capsys, monkeypatch):
    monkeypatch.setenv("LEGCLUS_BUDGET", "10")
    code, out = run(capsys, "verify", "6,5,6")
    assert code == 1
    assert "[SKIP] filling census (budget)" in out
    assert "PASS] filling census" not in out
    code, out = run(capsys, "verify", "6,5,6", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["skipped"] == ["filling census"]
    assert all(data["checks"].values())


def test_bad_word_is_domain_error(capsys):
    assert main(["augvar", "[2,1,2]", "--count"]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["augvar"])
    assert err.value.code == 2


def test_determinism(capsys):
    _, out1 = run(capsys, "rulings", "[3,3]", "--json")
    _, out2 = run(capsys, "rulings", "[3,3]", "--json")
    assert out1 == out2


def test_fillings_svg(capsys):
    code, out = run(capsys, "fillings", "[3,3]", "--sequence", "1,2,5,6", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


@pytest.mark.parametrize(
    "argv",
    [
        ["mutate", "5", "--at", "9"],
        ["mutate", "5", "--at", "x"],
        ["mutate", "5", "--at", "0"],
        ["mutate", "5", "--at", "5"],
        ["augvar", "3", "--count", "--char", "4"],
        ["augvar", "3", "--count", "--char", "0"],
        ["seeds", "5", "--bound", "-1"],
        ["fillings", "3", "--sequence", "x"],
    ],
)
def test_bad_arguments_end_in_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "MISMATCH" not in captured.out


def test_augvar_count_mismatch_exits_1(capsys, monkeypatch):
    from legclus import augvar

    monkeypatch.setattr(augvar, "count_points", lambda pres, p: -1)
    code, out = run(capsys, "augvar", "[3,3]", "--char", "2", "--count")
    assert code == 1
    assert "[MISMATCH]" in out


def test_format_json_is_a_usage_error(capsys):
    for argv in (["seed", "5,4", "--format", "json"], ["fillings", "3,3", "--format", "json"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'json'" in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err and captured.out == ""


def test_fillings_svg_needs_a_sequence(capsys):
    assert main(["fillings", "3,3", "--format", "svg"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


# words with m <= 5, plus a few that are not in rational form or do not parse
FUZZ_WORDS = [",".join(map(str, w.blocks)) for w in rational_form_words(5)] + [
    "2,1,2", "1,1,1", "3,0", "-2", "x", "",
]
FUZZ_INTS = st.integers(-3, 12).map(str)
FUZZ_LISTS = st.lists(st.integers(-3, 12), max_size=5).map(lambda xs: ",".join(map(str, xs)))
FUZZ_VALUES = {
    "--at": FUZZ_LISTS,
    "--sequence": FUZZ_LISTS,
    "--char": FUZZ_INTS,
    "--bound": FUZZ_INTS,
    "--style": st.sampled_from(["inequality", "equation", "other"]),
    "--format": st.sampled_from(["text", "dot", "svg", "json"]),
}
FUZZ_OPTIONS = {
    "classify": [],
    "dga": [],
    "augvar": ["--char", "--count", "--enumerate", "--style"],
    "seed": ["--format"],
    "mutate": ["--at"],
    "seeds": ["--bound", "--enumerate"],
    "fillings": ["--sequence", "--enumerate", "--format"],
    "rulings": [],
    "verify": [],
}


@st.composite
def fuzz_argv(draw):
    """A subcommand and a word, then options drawn mostly from the
    subcommand's own, with random values; never ``--out``."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command, draw(st.sampled_from(FUZZ_WORDS))]
    if command == "classify" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(FUZZ_WORDS)))
    options = draw(st.lists(st.sampled_from(FUZZ_OPTIONS[command] + ["--json"]), max_size=3))
    if draw(st.integers(0, 5)) == 0:  # now and then an option of another subcommand
        options.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    for option in options:
        argv.append(option)
        if option in FUZZ_VALUES:
            argv.append(draw(FUZZ_VALUES[option]))
    return argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fuzz_argv())
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
