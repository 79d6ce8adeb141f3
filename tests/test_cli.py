import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootposets
from rootposets.cli import main

REPORTS = ("roots", "hasse", "ideals", "abelian", "classes", "covering")
FORMATS = ("text", "json", "csv")
# stdout sha256 of the E7 lattice commands; the CI package job checks the
# installed CLI against the same file
STDOUT_SHA256 = json.loads((Path(__file__).parent / "cli_stdout_sha256.json").read_text())["cli"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("what", REPORTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_report_runs_and_is_deterministic(capsys, what, fmt):
    code, out, err = run(capsys, "report", "--type", "B3", "--what", what, "--format", fmt)
    assert code == 0 and err == ""
    assert out.endswith("\n")
    code2, out2, _ = run(capsys, "report", "--type", "B3", "--what", what, "--format", fmt)
    assert code2 == 0 and out2 == out


def test_report_ideals_text_g2(capsys):
    code, out, _ = run(capsys, "report", "--type", "G2", "--what", "ideals")
    assert code == 0
    assert out.splitlines()[0] == "G2: 8 ideals, 8 edges"


def test_report_abelian_text_a1(capsys):
    code, out, _ = run(capsys, "report", "--type", "A1", "--what", "abelian")
    assert code == 0
    assert out.splitlines()[0] == "A1: 2 ideals, 1 edges"


def test_report_covering_text_f4(capsys):
    code, out, _ = run(capsys, "report", "--type", "F4", "--what", "covering")
    assert code == 0
    assert out == "F4: Delta+ 4 + 7q + 12q^2 + q^3; Abelian 1 + 10q + 5q^2\n"


def test_report_accepts_family_plus_rank(capsys):
    code, out, _ = run(capsys, "report", "--type", "B", "--rank", "3", "--what", "hasse")
    code2, out2, _ = run(capsys, "report", "--type", "B3", "--what", "hasse")
    assert code == code2 == 0 and out == out2


def test_report_json_is_compact_and_sorted(capsys):
    code, out, _ = run(capsys, "report", "--type", "A2", "--what", "covering", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"type": "A2", "rank": 2, "delta_coeffs": [2, 0, 1], "ab_coeffs": [1, 3]}
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


E7_TYPE_COUNTS = [1011, 902, 1729, 2288, 2804, 2368, 1729, 1729]


def test_report_ideals_types_every_edge_of_e7(capsys):
    code, out, _ = run(capsys, "report", "--type", "E7", "--what", "ideals")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "E7: 4160 ideals, 14560 edges"
    assert lines[2] == "  per-type edges: " + ", ".join(
        f"a{i}: {c}" for i, c in enumerate(E7_TYPE_COUNTS)
    )
    code, out, _ = run(capsys, "report", "--type", "E7", "--what", "ideals", "--format", "json")
    assert code == 0
    assert json.loads(out)["per_type_counts"] == E7_TYPE_COUNTS


def test_export_delta_counts(capsys):
    code, out, _ = run(capsys, "export", "--what", "delta", "--type", "F4")
    assert code == 0
    assert out.startswith("digraph delta {")
    assert out.count(" -> ") == 34
    assert out.count("[label=") == 24


def test_export_ad_and_ab(capsys):
    code, out, _ = run(capsys, "export", "--what", "ad", "--type", "A3")
    assert code == 0
    assert out.count(" -> ") == 21
    assert 'label="empty"' in out
    code, out, _ = run(capsys, "export", "--what", "ab", "--type", "F4")
    assert code == 0
    assert out.count(" -> ") == 20
    assert out.count('type="') == 20


def test_export_ad_e7_has_every_typed_edge(capsys):
    code, out, _ = run(capsys, "export", "--what", "ad", "--type", "E7")
    assert code == 0
    assert out.count("[label=") == 4160
    assert out.count(" -> ") == 14560
    assert [out.count(f'[type="{i}"') for i in range(8)] == E7_TYPE_COUNTS


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_e7_lattice_stdout_is_pinned(capsys, command):
    # byte for byte, not only the counts: the export numbers its DOT nodes in
    # enumeration order
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


@pytest.mark.parametrize("argv", (["report", "--what", "ideals"], ["export", "--what", "ad"]))
def test_report_and_export_reject_exhaustive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--type", "A2", "--exhaustive"])
    assert exc.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_bad_system_is_exit_2(capsys):
    code, out, err = run(capsys, "report", "--type", "E9", "--what", "roots")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command,what", [("report", "hasse"), ("export", "delta")])
@pytest.mark.parametrize("system,rank", [("B3", "4"), ("A1", "0")])
def test_rank_after_a_full_system_name_is_exit_2(capsys, command, what, system, rank):
    # --rank goes with a family letter; B3 --rank 4 is not B34
    code, out, err = run(capsys, command, "--type", system, "--rank", rank, "--what", what)
    assert code == 2 and out == ""
    assert err == f"error: unknown family {system!r}\n"


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--type", "A2", "--what", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "report", "--type", "G2", "--what", "abelian")
    code2 = main(["report", "--type", "G2", "--what", "abelian", "--out", str(target)])
    capsys.readouterr()
    assert code == code2 == 0
    assert target.read_text(encoding="utf-8") == out


def test_unwritable_out_is_exit_1(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.txt"
    code, out, err = run(capsys, "report", "--type", "A2", "--what", "roots", "--out", str(target))
    assert code == 1
    assert "cannot write" in err


def test_verify_suite_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "covering", "--max-rank", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].endswith("passed, 0 failed")


def test_verify_report_to_file(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code = main(["verify", "--suite", "delta", "--max-rank", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert "0 failed" in text


def test_verify_under_optimize_flag_matches():
    """Invariants raise errors rather than assert, so `python -O` checks the same.

    Each run also gets its own hash seed: the report must not depend on it.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(rootposets.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "rootposets.cli", "verify", "--suite", "all", "--max-rank", "4"]
    procs = [
        subprocess.run(
            [sys.executable, *flags, *argv],
            capture_output=True,
            text=True,
            env=dict(env, PYTHONHASHSEED=seed),
            timeout=120,
        )
        for flags in ((), ("-O",))
        for seed in ("0", "1")
    ]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == procs[0].stdout
    assert procs[0].stdout.splitlines()[-1].endswith(", 0 failed")
