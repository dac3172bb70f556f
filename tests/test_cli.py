import os
import subprocess
import sys
from pathlib import Path

import pytest

import clawmatch
from clawmatch import figure1_graph, parse_graph, serialize_graph
from clawmatch.cli import main
from corpus import K4, PRISM, TRIPLE_BOND, certify_corpus

K4_DOC = serialize_graph(K4)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_k4(capsys, k4_file):
    code, out, _ = run(capsys, "check", k4_file)
    assert code == 0
    assert "cubic=true" in out
    assert "claw_free=true" in out
    assert "bridges=[]" in out
    assert "two_edge_connected=true" in out
    assert "three_edge_connected=true" in out


def test_check_bridgeless_flag(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "fig1", "1")
    assert code == 0
    path = tmp_path / "fig1.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "check", str(path), "--bridgeless")
    assert code == 1
    assert "bridge_count=2" in out


def test_check_multigraph_reports_na(capsys, tmp_path):
    path = tmp_path / "tb.txt"
    path.write_text(serialize_graph(TRIPLE_BOND))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "simple=false" in out
    assert "claw_free=n/a" in out


def test_decompose(capsys, k4_file):
    code, out, _ = run(capsys, "decompose", k4_file)
    assert code == 0
    assert out == "kind=k4\nn=4\n"


def test_build_command(capsys, tmp_path):
    base = tmp_path / "tb.txt"
    base.write_text(serialize_graph(TRIPLE_BOND))
    code, out, _ = run(capsys, "build", "--base", str(base), "--lengths", "0,0,0")
    assert code == 0
    g = parse_graph(out)
    assert g.n == 6
    code, _, err = run(capsys, "build", "--base", str(base), "--lengths", "0,0")
    assert code == 2
    assert "expected 3 lengths" in err


def test_gen_ring_then_count(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "ring", "2")
    assert code == 0
    path = tmp_path / "ring2.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert out.strip() == "5"
    code, out, _ = run(capsys, "count", str(path), "--two-factors")
    assert out.strip() == "5"


def test_gen_random_base_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "random-base", "6", "--seed", "4")
    code, out2, _ = run(capsys, "gen", "random-base", "6", "--seed", "4")
    assert out1 == out2
    assert parse_graph(out1).n == 6


def test_cycle_space_command(capsys, tmp_path):
    path = tmp_path / "tb.txt"
    path.write_text(serialize_graph(TRIPLE_BOND))
    code, out, _ = run(capsys, "cycle-space", str(path), "--enumerate")
    assert code == 0
    assert "dimension=2" in out
    assert "members=4" in out
    assert "member_0=" in out


def test_certify_command(capsys, k4_file):
    code, out, _ = run(capsys, "certify", k4_file, "--verify-oracle")
    assert code == 0
    assert "branch=k4" in out
    assert "count=3" in out
    assert "oracle_check=ok" in out


def test_certify_rejects_bridged_input(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "fig1", "0")
    path = tmp_path / "fig1.txt"
    path.write_text(out)
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "bridge" in err


def test_verify_3ec_command(capsys, tmp_path):
    path = tmp_path / "prism.txt"
    path.write_text(serialize_graph(PRISM))
    code, out, _ = run(capsys, "verify-3ec", str(path))
    assert code == 0
    assert out.strip() == "result=true"
    k4_path = tmp_path / "k4.txt"
    k4_path.write_text(K4_DOC)
    code, _, err = run(capsys, "verify-3ec", str(k4_path))
    assert code == 2  # precondition: K4 is excluded


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 2 1\ne 0 9\n")
    code, _, err = run(capsys, "count", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "/nonexistent/file.txt")
    assert code == 2


def test_directory_argument_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, "count", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def subprocess_env() -> dict:
    """The environment with this checkout's clawmatch first on the import path."""
    env = dict(os.environ)
    src = str(Path(clawmatch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_certify_output_unchanged_under_optimize_flag(tmp_path):
    # python -O strips asserts; no check on the certify path may rely on one
    env = subprocess_env()
    hosts = dict(certify_corpus())
    for name, branch in (("rb6-1-0", "cycle-space"), ("tb-210", "long-2-factor")):
        doc = tmp_path / f"{name}.txt"
        doc.write_text(serialize_graph(hosts[name]))
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "clawmatch.cli", "certify", str(doc)],
                capture_output=True,
                text=True,
                env=env,
            )
            for flags in ((), ("-O",))
        ]
        assert [r.returncode for r in runs] == [0, 0], name
        assert f"branch={branch}" in runs[0].stdout
        assert runs[1].stdout == runs[0].stdout, name


def test_console_entry_point(tmp_path):
    doc = tmp_path / "k4.txt"
    doc.write_text(K4_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "clawmatch.cli", "count", str(doc)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_count_exhausting_the_stack_exits_3_without_traceback(tmp_path):
    # the backtracking counter recurses once per matched edge; n=2014 exceeds the default limit
    doc = tmp_path / "fig1-500.txt"
    doc.write_text(serialize_graph(figure1_graph(500)))
    proc = subprocess.run(
        [sys.executable, "-m", "clawmatch.cli", "count", str(doc)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ")
    assert "Traceback" not in proc.stderr


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
