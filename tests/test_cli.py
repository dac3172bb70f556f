import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import clawmatch
from clawmatch import (
    build,
    certify,
    counting,
    figure1_graph,
    parse_graph,
    random_base,
    ring_of_diamonds,
    serialize_certificate,
    serialize_graph,
)
from clawmatch.cli import main
from corpus import (
    K4,
    PRISM,
    TRIPLE_BOND,
    certify_corpus,
    circular_ladder,
    graph_documents,
    three_edge_connected_host,
)

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
    # only plain decimal fields: int() would also take underscores, a "+" and other digits
    bad = ("1,,0,0", ",1,0,0,", "0,0,0,", "", "0,x,0", "1_0, +0,0", "1_0,0,0", "+0,0,0")
    bad += ("0,\u0661,0", "0,\uff11,0", "0,\u00b2,0", "0,- 1,0", "0,--1,0", "0,-,0")
    for lengths in bad:
        code, out, err = run(capsys, "build", "--base", str(base), "--lengths", lengths)
        assert (code, out) == (2, ""), lengths
        assert err == "error: --lengths must be a comma-separated list of integers\n", lengths
    code, out, _ = run(capsys, "build", "--base", str(base), "--lengths", " 1 ,0,\t0")
    assert (code, parse_graph(out).n) == (0, 10)
    # a negative field is a decimal, so it reaches build's own check
    code, out, err = run(capsys, "build", "--base", str(base), "--lengths", "0, -1,0")
    assert (code, out, err) == (2, "", "error: length of edge 1 is negative\n")


def test_gen_ring_then_count(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "ring", "2")
    assert code == 0
    path = tmp_path / "ring2.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert out.strip() == "5"


def test_count_has_no_two_factors_flag(capsys, tmp_path):
    # on the cubic hosts it accepted, the flag printed the matching count
    path = tmp_path / "triangle.txt"
    path.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", str(path), "--two-factors"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")
    assert "unrecognized arguments: --two-factors" in err and "Traceback" not in err
    assert run(capsys, "count", str(path)) == (0, "0\n", "")
    with pytest.raises(SystemExit):
        main(["count", "--help"])
    assert "--two-factors" not in capsys.readouterr().out
    assert not hasattr(counting, "count_two_factors")
    assert "count_two_factors" not in clawmatch.__all__


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


def test_cycle_space_enumerate_refusal_leaves_stdout_empty(capsys, k4_file):
    # K4 has a 3-dimensional cycle space: 8 members
    code, out, err = run(capsys, "cycle-space", k4_file, "--enumerate", "--cap", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    code, out, _ = run(capsys, "cycle-space", k4_file, "--enumerate", "--cap", "8")
    assert code == 0
    assert sum(line.startswith("member_") for line in out.splitlines()) == 8


def test_certify_command(capsys, k4_file):
    code, out, _ = run(capsys, "certify", k4_file, "--verify-oracle")
    assert code == 0
    assert "branch=k4" in out
    assert "count=3" in out
    assert "oracle_check=ok" in out


def test_certify_oracle_disagreement_exits_3(capsys, monkeypatch, k4_file):
    enumerate_all = counting.enumerate_perfect_matchings
    monkeypatch.setattr(
        counting, "enumerate_perfect_matchings", lambda g, cap: enumerate_all(g, cap)[1:]
    )
    code, out, err = run(capsys, "certify", k4_file, "--verify-oracle")
    assert code == 3
    assert err == "internal error: certificate disagrees with the oracle enumeration\n"
    assert out == serialize_certificate(certify(K4))


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


def test_verify_3ec_exits_2_on_a_truncated_prism_too_large_to_decide(capsys, tmp_path):
    # n = 132, 3-edge-connected and claw-free: 2^23 matchings, past the cap of 2^22
    g, _ = build(circular_ladder(22), [0] * 66)
    path = tmp_path / "prism-132.txt"
    path.write_text(serialize_graph(g))
    code, out, err = run(capsys, "verify-3ec", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: enumeration needs {2**23} items, cap is {2**22}\n"


def test_check_reads_a_comment_holding_a_line_separator(capsys, tmp_path):
    # U+2028 ends no line for open(), so the comment's tail is no graph line
    path = tmp_path / "k4.txt"
    path.write_text(K4_DOC.replace("\n", " # a\u2028b\n", 1))
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert "claw_free=true" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 2 1\ne 0 9\n")
    code, _, err = run(capsys, "count", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "doc, error",
    [
        ("p 1_0 0\n", "line 1: header counts must be integers"),
        ("p +2 1\ne 0 1\n", "line 1: header counts must be integers"),
        ("p \u0662 1\ne 0 1\n", "line 1: header counts must be integers"),
        ("p 2 1\ne 0 +1\n", "line 2: edge endpoints must be integers"),
    ],
)
def test_check_rejects_integers_that_are_not_plain_decimal(capsys, tmp_path, doc, error):
    path = tmp_path / "doc.txt"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "/nonexistent/file.txt")
    assert code == 2


def test_directory_argument_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, "count", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


FILE_COMMANDS = (
    ("check",),
    ("decompose",),
    ("count",),
    ("cycle-space",),
    ("certify",),
    ("verify-3ec",),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_documents())
@example("p 0 0\n")  # the empty graph is not 2-edge-connected: exit 2, not an internal error
def test_commands_on_arbitrary_documents_exit_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        path.write_text(doc)
        for argv in FILE_COMMANDS:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([*argv, str(path)])
            assert code in (0, 1, 2), (argv, err.getvalue())


# Runs argv[2:] under a 512 MiB address-space cap, reaps it with wait4 and
# writes its peak RSS in bytes to argv[1], exiting with its exit code.  The
# command is a grandchild of the test because a child forked from the test
# process starts with the test process's resident pages, which ru_maxrss counts.
CAPPED_RUN = """
import os, resource, subprocess, sys

def cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

proc = subprocess.Popen(sys.argv[2:], preexec_fn=cap)
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as out:
    out.write(str(usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024)))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_input_too_large_for_memory_exits_2_without_traceback(tmp_path):
    pytest.importorskip("resource")
    doc = tmp_path / "huge.txt"
    doc.write_text("p 100000000000 0\n")  # 17 bytes, 10^11 vertices
    peak = tmp_path / "peak.txt"
    for argv in FILE_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_RUN, str(peak)]
            + [sys.executable, "-m", "clawmatch.cli", *argv, str(doc)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert proc.stderr == "error: out of memory: the input is too large\n", argv
        assert proc.stdout == "", argv
        # the first allocation of n slots refuses; no per-vertex table grows to the cap
        assert int(peak.read_text()) <= 64 << 20, (argv, peak.read_text())


def subprocess_env() -> dict:
    """The environment with this checkout's clawmatch first on the import path."""
    env = dict(os.environ)
    src = str(Path(clawmatch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_large_counts_print_the_same_under_any_int_digit_limit(tmp_path):
    # 640 digits is Python's lowest limit and 0 lifts it; neither may change a byte
    ring = tmp_path / "ring15000.txt"
    ring.write_text(serialize_graph(ring_of_diamonds(15000)))
    base = tmp_path / "base4300.txt"
    base.write_text(serialize_graph(random_base(4300, seed=1)))  # dimension 2151, 648 digits
    refusal = f"error: enumeration needs at least 2^15000 items, cap is {2**22}\n"
    for argv, code, head, err in (
        (("certify", str(ring)), 2, "", refusal),
        (("cycle-space", str(base)), 0, "dimension=2151\nmembers=2^2151\nbasis_0=", ""),
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "clawmatch.cli", *argv],
                capture_output=True,
                text=True,
                env={**subprocess_env(), "PYTHONINTMAXSTRDIGITS": limit},
            )
            for limit in ("640", "0")
        ]
        outputs = [(run.returncode, run.stdout, run.stderr) for run in runs]
        assert outputs[0] == outputs[1], argv
        returncode, out, error = outputs[0]
        assert (returncode, error) == (code, err) and out.startswith(head), argv
    assert out.count("\nbasis_") == 2151


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


def test_corpus_certificates_verify_under_optimize_flag():
    # python -O strips asserts; the accept pass of verify_certificate may not rely on one
    env = subprocess_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)  # corpus
    script = (
        "from clawmatch import certify, verify_certificate\n"
        "from corpus import certify_corpus\n"
        "print(*(verify_certificate(g, certify(g)) for _, g in certify_corpus()))\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env
        )
        for flags in ((), ("-O",))
    ]
    expected = " ".join(["True"] * len(certify_corpus())) + "\n"
    assert [(r.returncode, r.stdout) for r in runs] == [(0, expected)] * 2, runs[1].stderr


def test_closed_stdout_exits_141_without_an_error_line(tmp_path):
    base = random_base(24, seed=5)
    host, _ = build(base, [0] * base.m)  # an 8192-row certificate, about 0.9 MB of text
    for name, g in (("base", base), ("host", host)):
        (tmp_path / f"{name}.txt").write_text(serialize_graph(g))
    # stdout buffered, as when run from a shell, and written straight through to the pipe
    for unbuffered in (None, "1"):
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        # (arguments, lines read before the reader closes); 0 closes it before the first write
        for argv, lines in (
            (("certify", "host.txt"), 3),  # like `| head -3`
            (("check", "base.txt"), 0),
            (("cycle-space", "base.txt", "--enumerate"), 1),
        ):
            proc = subprocess.Popen(
                [sys.executable, "-m", "clawmatch.cli", *argv],
                cwd=tmp_path,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            err = err.decode()
            assert proc.returncode == 141, (unbuffered, argv, err)
            for text in ("error:", "Traceback", "Exception ignored"):
                assert text not in err, (unbuffered, argv)


def test_console_entry_point(tmp_path):
    doc = tmp_path / "k4.txt"
    doc.write_text(K4_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "clawmatch.cli", "count", str(doc)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


@pytest.fixture
def fig1_500_file(tmp_path):
    # n = 2014: the oracle's searches run 1007 matched edges or 2014 taken edges deep
    path = tmp_path / "fig1-500.txt"
    path.write_text(serialize_graph(figure1_graph(500)))
    return str(path)


@pytest.fixture
def host_48_file(tmp_path):
    path = tmp_path / "3ec-48.txt"
    path.write_text(serialize_graph(three_edge_connected_host(16)))
    return str(path)


def test_count_on_a_deep_host_prints_9(capsys, fig1_500_file):
    assert run(capsys, "count", fig1_500_file) == (0, "9\n", "")


def test_verify_3ec_command_on_a_48_vertex_host(capsys, host_48_file):
    assert run(capsys, "verify-3ec", host_48_file) == (0, "result=true\n", "")


def test_oracle_output_unchanged_under_optimize_flag(fig1_500_file, host_48_file):
    # python -O strips asserts; neither the oracle nor the remark may rely on one
    for argv in (("verify-3ec", host_48_file), ("count", fig1_500_file)):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "clawmatch.cli", *argv],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            for flags in ((), ("-O",))
        ]
        assert runs[0].returncode == runs[1].returncode == 0, argv
        assert runs[1].stdout == runs[0].stdout, argv


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout; a refactor that changes what a demo prints fails here
DEMO_STDOUT_SHA256 = {
    "certificates.py": "a7a14a3ce40603db93c13a5b1f8e60f2e3b0a986f7a074b09b0442bbf9954f40",
    "cycle_space_lifting.py": "2bab105641cdf909f85012b916f449e30e9245cb4d93e92ae204de64bb638a7a",
    "structure_walkthrough.py": "9d19fc071572bdc33a0626a9fdddd7aa5172bcc7076c3c11d17af5cc0aa9e690",
    "why_bridgeless_matters.py": "50de6972c2aed7e20ca934e226a2342655788ed0c0d150f7353b6ce3df915da0",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]
