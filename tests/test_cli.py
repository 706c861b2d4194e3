import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zxq import diagram_io
from zxq.cli import cli_main
from zxq.diagram import VertexKind, identity_diagram, spider_diagram
from zxq.phase import Phase


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "cnotcnot.zxc").write_text("qubits 2\ncnot 0 1\ncnot 0 1\n")
    (tmp_path / "id2.zxc").write_text("qubits 2\n")
    (tmp_path / "t.zxc").write_text("qubits 1\nt 0\n")
    (tmp_path / "s.zxc").write_text("qubits 1\ns 0\n")
    diagram_io.save(
        spider_diagram(VertexKind.Z, Phase.exact(1, 4), 1, 1), str(tmp_path / "t.zxg")
    )
    return tmp_path


def test_eval_circuit(files, capsys):
    assert cli_main(["eval", str(files / "t.zxc")]) == 0
    out = capsys.readouterr().out
    rows = out.strip().split("\n")
    assert rows[0].split("\t")[0] == "1+0i"
    assert "0.707106781187+0.707106781187i" in rows[1]


def test_eval_diagram_matches_circuit(files, capsys):
    cli_main(["eval", str(files / "t.zxg")])
    got_diagram = capsys.readouterr().out
    cli_main(["eval", str(files / "t.zxc")])
    got_circuit = capsys.readouterr().out
    assert got_diagram == got_circuit


def test_eval_cap_bounds_the_result(files, capsys):
    diagram_io.save(identity_diagram(3), str(files / "id3.zxg"))
    assert cli_main(["eval", str(files / "id3.zxg"), "--cap", "16"]) == 2
    assert capsys.readouterr().err == "error: contraction needs a tensor of 2^6 entries\n"
    assert cli_main(["eval", str(files / "id3.zxg"), "--cap", "64"]) == 0


def test_check_equal(files):
    assert cli_main(["check", str(files / "cnotcnot.zxc"), str(files / "id2.zxc")]) == 0


def test_check_mixed_formats(files):
    assert cli_main(["check", str(files / "t.zxc"), str(files / "t.zxg")]) == 0


def test_check_unequal_exits_one(files):
    assert cli_main(["check", str(files / "t.zxc"), str(files / "s.zxc")]) == 1


def test_check_two_zero_maps(files, capsys):
    z = identity_diagram(1)
    z.add_vertex(VertexKind.Z, Phase.pi())  # scalar 1 + e^(i pi) = 0
    diagram_io.save(z, str(files / "z.zxg"))
    assert cli_main(["check", str(files / "z.zxg"), str(files / "z.zxg")]) == 0
    assert capsys.readouterr().out == "equal: both are the zero map\n"


def test_check_tolerance_flag(files):
    assert cli_main(["check", str(files / "t.zxc"), str(files / "s.zxc"), "--tol", "1e-12"]) == 1


def test_env_tolerance(files, monkeypatch):
    monkeypatch.setenv("ZXQ_TOL", "not-a-float")
    assert cli_main(["check", str(files / "t.zxc"), str(files / "t.zxc")]) == 2
    for bad in ("nan", "-1", "inf"):
        monkeypatch.setenv("ZXQ_TOL", bad)
        assert cli_main(["check", str(files / "t.zxc"), str(files / "t.zxc")]) == 2
    monkeypatch.setenv("ZXQ_TOL", "1e-9")
    assert cli_main(["check", str(files / "t.zxc"), str(files / "t.zxc")]) == 0
    monkeypatch.setenv("ZXQ_TOL", "0")
    assert cli_main(["check", str(files / "t.zxc"), str(files / "t.zxc")]) == 0


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("-1", "-1"), ("inf", "inf")])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_rejects_bad_tolerance(files, command, tol, shown, capsys):
    # a NaN bound failed every comparison and an infinite one passed every one
    (files / "h.zxc").write_text("qubits 1\nh 0\n")
    (files / "ht.zxc").write_text("qubits 1\nh 0\nt 0\n")
    argv = ["check", str(files / "h.zxc"), str(files / "ht.zxc")]
    if command == "verify":
        argv = ["verify", "rules", "--samples", "1"]
    assert cli_main([*argv, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be finite and at least 0, got {shown}\n"


def test_simplify_writes_output_and_trace(files, capsys):
    out_path = files / "out.zxg"
    trace_path = files / "trace.txt"
    rc = cli_main(
        ["simplify", str(files / "cnotcnot.zxc"), "-o", str(out_path), "--trace", str(trace_path)]
    )
    assert rc == 0
    assert out_path.exists()
    lines = trace_path.read_text().strip().split("\n")
    assert all("digest:" in line for line in lines)
    # output must check equal against its input
    assert cli_main(["check", str(files / "cnotcnot.zxc"), str(out_path)]) == 0


def test_simplify_budget_and_full(files, capsys):
    out_path = files / "out2.zxg"
    rc = cli_main(["simplify", str(files / "cnotcnot.zxc"), "-o", str(out_path), "--budget", "1", "--full"])
    assert rc == 0
    assert "budget" in capsys.readouterr().err


def test_euler_quarter_angles(capsys):
    assert cli_main(["euler", "1/2", "1/2", "1/2"]) == 0
    vals = [float(x) for x in capsys.readouterr().out.split()]
    assert vals == pytest.approx([math.pi / 2] * 3)


def test_euler_accepts_floats(capsys):
    assert cli_main(["euler", "f:0.3", "1.0", "0.3"]) == 0
    assert len(capsys.readouterr().out.split()) == 3


@pytest.mark.parametrize(
    "alpha, match",
    [
        ("1/0", "positive"),
        ("1/-2", "positive"),
        ("f:nan", "finite"),
        ("inf", "finite"),
        ("x", "bad phase 'x' (want p/d, f:<float> or plain radians)"),
    ],
)
def test_euler_rejects_bad_phases(alpha, match, capsys):
    assert cli_main(["euler", alpha, "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and match in captured.err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("name", ["t.zxc", "t.zxg"])
def test_eval_rejects_cap_below_one(files, name, cap, capsys):
    assert cli_main(["eval", "--cap", cap, str(files / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cap must be at least 1, got {cap}\n"


def test_eval_cap_bounds_zxg_only(files, capsys):
    # the .zxg spider needs a 2^2-entry tensor; the .zxc form never contracts
    assert cli_main(["eval", "--cap", "1", str(files / "t.zxg")]) == 2
    assert cli_main(["eval", "--cap", "1", str(files / "t.zxc")]) == 0
    capsys.readouterr()
    assert cli_main(["eval", "--help"]) == 0
    assert "ignores it" in " ".join(capsys.readouterr().out.split())


def test_check_rejects_non_finite_phase(files, capsys):
    inf = files / "inf.zxc"
    inf.write_text("qubits 1\nrz 0 f:inf\n")
    assert cli_main(["check", str(inf), str(inf)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_rules_exit_zero(capsys):
    assert cli_main(["verify", "rules", "--samples", "5", "--seed", "1"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_relations_exit_zero(capsys):
    assert cli_main(["verify", "relations"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("relation") for line in out.splitlines()) == 17


def test_verify_pformulas_exit_zero(capsys):
    assert cli_main(["verify", "pformulas", "--samples", "50"]) == 0


@pytest.mark.parametrize("campaign, line", [
    ("rules", "samples_per_rule: 100"), ("pformulas", "samples: 1000"),
])
def test_verify_samples_default_to_the_campaigns_own(campaign, line, capsys):
    assert cli_main(["verify", campaign]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("campaign", ["rules", "relations", "pformulas"])
def test_verify_rejects_samples_below_one(campaign, samples, capsys):
    assert cli_main(["verify", campaign, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


def test_fixtures_export(tmp_path, capsys):
    rc = cli_main(["fixtures", "export", str(tmp_path / "fx")])
    assert rc == 0
    assert len(list((tmp_path / "fx").iterdir())) == 34


def test_usage_errors_exit_two(files, capsys):
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["eval", str(files / "t.zxc").replace(".zxc", ".nope")]) == 2
    assert cli_main(["eval", "/nonexistent/x.zxc"]) == 2
    bad = files / "bad.zxc"
    bad.write_text("qubits 2\ncnot 0 0\n")
    assert cli_main(["eval", str(bad)]) == 2
    capsys.readouterr()
    list_endpoint = files / "bad.zxg"
    list_endpoint.write_text(
        '{"inputs": [], "outputs": [], "nodes": [{"id": "a", "kind": "Z"}], "edges": [[["a"], "a"]]}'
    )
    assert cli_main(["eval", str(list_endpoint)]) == 2
    assert "edges[0]: unknown endpoint" in capsys.readouterr().err


def test_eval_resource_cap(files, capsys):
    wide = files / "wide.zxg"
    diagram_io.save(spider_diagram(VertexKind.Z, Phase.zero(), 0, 12), str(wide))
    assert cli_main(["eval", str(wide), "--cap", "16"]) == 2


def test_cli_import_leaves_networkx_unloaded():
    # only Diagram.iso_equal needs networkx, and it imports it on its first call
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import zxq.cli, sys; assert 'networkx' not in sys.modules"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
