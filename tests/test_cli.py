import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legclus
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


@pytest.mark.parametrize("word", ["5,4", "7", "2,2,2,2"])
def test_verify_builds_no_canonical_key(capsys, monkeypatch, word):
    # the fan seed is compared with the initial seed vertex for vertex
    from legclus import cluster

    def refuse(*args):
        raise AssertionError("verify rendered a canonical key")

    monkeypatch.setattr(cluster.Seed, "canonical_key", refuse)
    monkeypatch.setattr(cluster, "_canonical_key", refuse)
    assert main(["verify", word]) == 0
    assert "[PASS] fan seed matches initial seed" in capsys.readouterr().out


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
    assert data["skipped"] == [
        "ruling count is the Fibonacci product", "Kauffman point-count identity", "filling census"
    ]
    assert all(data["checks"].values())


@pytest.mark.parametrize(
    "argv", [["rulings", "30"], ["augvar", "3", "--count", "--char", "20011"]]
)
def test_over_budget_listing_is_refused_before_it_starts(capsys, argv):
    # 1,346,269 rulings, and a transfer over ~20011^3 states and values
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_seeds_bound_flag_wins_over_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("LEGCLUS_BUDGET", "5")
    code, out = run(capsys, "seeds", "6", "--bound", "10000")
    assert code == 0 and out == "mutation class of [6]: 132 seeds\n"
    code, out = run(capsys, "seeds", "6")
    assert code == 0 and out == "mutation class of [6]: 5 seeds (bound hit)\n"


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_single_block(capsys, n):
    code, out = run(capsys, "verify", str(n), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["checks"]["fan seed matches initial seed"] is True


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


def test_empty_sequence_is_run(capsys):
    # "" is the empty sequence, the only complete one of a one-crossing block
    code, out = run(capsys, "fillings", "1", "--sequence", "")
    assert code == 0
    assert "pinching sequence [] on [1]" in out and "  t1 = s1\n" in out
    assert main(["fillings", "2,2", "--sequence", ""]) == 1
    captured = capsys.readouterr()
    assert "sequence of length 0 is not complete" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("target", ["missing/x.txt", "."])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, target):
    # a missing directory and a directory in place of a file
    path = tmp_path / target
    assert main(["classify", "3,3", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_fillings_svg_needs_a_sequence(capsys):
    assert main(["fillings", "3,3", "--format", "svg"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "3,3", "--format", "dot", "--json"],
        ["fillings", "3,3", "--sequence", "1,2,5,6", "--format", "svg", "--json"],
    ],
)
def test_drawing_with_json_is_refused(capsys, argv):
    # JSON cannot carry the drawing, so the call fails instead of dropping it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(legclus.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "legclus", "classify", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
