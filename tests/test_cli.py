"""CLI behavior: arguments, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import bcscan
from bcscan import cli
from bcscan.fields import ConsistencyError
from bcscan.localfield import MAX_LOCAL_SIZE


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scan_table(capsys):
    code, out, err = run(["scan", "--q", "2", "--max-degree", "4"], capsys)
    assert code == 0
    assert "t^4 + t + 1" in out and "{9}" in out
    assert err == ""


def test_scan_json_parses(capsys):
    code, out, _ = run(["scan", "--q", "3", "--max-degree", "3", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == "1"
    assert [r["prime"] for r in obj["reports"]] == ["t^3 - t + 1", "t^3 - t - 1"]


def test_scan_csv(capsys):
    code, out, _ = run(["scan", "--q", "3", "--max-degree", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("q,prime,degree,n,")


def test_classify_detail(capsys):
    code, out, _ = run(["classify", "--q", "2", "--prime", "t^4 + t + 1"], capsys)
    assert code == 0
    assert "n=9" in out and "dim 1" in out


def test_classify_regular_prime(capsys):
    code, out, _ = run(["classify", "--q", "2", "--prime", "t^3 + t + 1"], capsys)
    assert code == 0
    assert "0 irregular" in out


def test_bc_listing(capsys):
    code, out, _ = run(["bc", "--q", "2", "--prime", "t^3 + t + 1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "1\tt + 1"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "scan.json"
    code, out, _ = run(
        ["scan", "--q", "2", "--max-degree", "4", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text(encoding="utf-8"))["q"] == 2


def test_usage_errors_exit_1(capsys):
    assert run(["scan", "--q", "2"], capsys)[0] == 1  # missing --max-degree
    assert run(["scan", "--q", "2", "--max-degree", "3", "--format", "yaml"], capsys)[0] == 1
    assert run(["frobnicate"], capsys)[0] == 1


def test_bad_q_exits_1(capsys):
    code, _, err = run(["scan", "--q", "6", "--max-degree", "2"], capsys)
    assert code == 1
    assert "prime power" in err


def test_bad_poly_exits_1(capsys):
    code, _, err = run(["classify", "--q", "2", "--prime", "t^4 ++ 1"], capsys)
    assert code == 1


def test_reducible_prime_exits_1(capsys):
    code, _, err = run(["classify", "--q", "2", "--prime", "t^2 + 1"], capsys)
    assert code == 1


def test_oversized_prime_exits_1(capsys):
    code, _, err = run(["classify", "--q", "2", "--prime", "t^200 + t + 1"], capsys)
    assert code == 1
    assert "exceeds supported limit" in err


def test_huge_exponent_exits_1(capsys):
    code, _, err = run(
        ["bc", "--q", "2", "--prime", "t^1000000000000000000000000000000 + 1"], capsys
    )
    assert code == 1
    assert err.startswith("bcscan: ") and "exceeds the supported limit" in err


@pytest.mark.parametrize(
    "q,prime",
    [("2", "1" * 5000 + "*t + 1"), ("4", "t^2 + a^" + "1" * 5000 + "*t + 1")],
)
def test_oversized_coefficient_integer_exits_1(q, prime, capsys):
    code, _, err = run(["bc", "--q", q, "--prime", prime], capsys)
    assert code == 1
    assert err.startswith("bcscan: ") and "exceeds the supported limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--q", "2", "--max-degree", "3", "--threads", "-4"],
        ["scan", "--q", "2", "--max-degree", "3", "--threads", "0"],
        ["scan", "--q", "2", "--max-degree", "3", "--precision", "0"],
        ["classify", "--q", "2", "--prime", "t + 1", "--precision", "500"],
        ["classify", "--q", "2", "--prime", "t + 1", "--threads", "-1"],
    ],
)
def test_bad_options_refused_before_any_prime(args, capsys, monkeypatch):
    def never(*_):
        raise AssertionError("a prime was enumerated or classified")

    monkeypatch.setattr(bcscan.herbrand, "monic_irreducibles", never)
    monkeypatch.setattr(cli, "classify_prime", never)
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bcscan: --")


@pytest.mark.parametrize("value", ["-4", "0"])
def test_bad_thread_environment_refused_before_any_prime(value, capsys, monkeypatch):
    def never(*_):
        raise AssertionError("a prime was enumerated or classified")

    monkeypatch.setenv("BCSCAN_THREADS", value)
    monkeypatch.setattr(bcscan.herbrand, "monic_irreducibles", never)
    code, out, err = run(["scan", "--q", "2", "--max-degree", "3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bcscan: BCSCAN_THREADS must be at least 1")


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--q", "2", "--max-degree", "12", "--check-local"],
        ["scan", "--q", "3", "--max-degree", "7", "--check-local"],
        ["classify", "--q", "2", "--prime", "t^16 + t^5 + t^3 + t^2 + 1", "--check-local"],
    ],
)
def test_check_local_above_its_bound_refused_before_any_work(args, capsys, monkeypatch):
    def never(*_):
        raise AssertionError("a prime was enumerated or classified")

    for name in ("monic_irreducibles", "residue_field", "bc_numbers", "classify_index"):
        monkeypatch.setattr(bcscan.herbrand, name, never)
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bcscan: ") and f"up to q^d = {MAX_LOCAL_SIZE}," in err


def test_degree_one_prime_at_the_precision_cap(capsys):
    # 3^96 overflows int64: the Teichmuller table must fall back to
    # Python integers even though no sum has more than one term
    code, out, _ = run(["classify", "--q", "3", "--prime", "t + 1", "--precision", "96"], capsys)
    assert code == 0
    assert "v(S_n(1))=0" in out


def test_fq_modulus_on_prime_q_exits_1(capsys):
    code, _, err = run(
        ["scan", "--q", "3", "--max-degree", "2", "--fq-modulus", "x^2 + 1"], capsys
    )
    assert code == 1


def test_fq_modulus_choice(capsys):
    code, out, _ = run(
        ["scan", "--q", "4", "--max-degree", "2", "--fq-modulus", "x^2 + x + 1"], capsys
    )
    assert code == 0
    assert "F_4" in out


def test_consistency_failure_exits_2(capsys, monkeypatch):
    def boom(*a, **k):
        raise ConsistencyError("forced")

    monkeypatch.setattr(cli, "scan", boom)
    code, _, err = run(["scan", "--q", "2", "--max-degree", "2"], capsys)
    assert code == 2
    assert "consistency" in err


def test_thread_flag_deterministic(capsys):
    base = ["scan", "--q", "3", "--max-degree", "3", "--format", "json"]
    _, out1, _ = run(base + ["--threads", "1"], capsys)
    _, out2, _ = run(base + ["--threads", "2"], capsys)
    assert out1 == out2


def test_timings_go_to_stderr(capsys):
    code, out, err = run(
        ["scan", "--q", "2", "--max-degree", "4", "--timings"], capsys
    )
    assert code == 0
    assert "timing t^4 + t + 1" in err
    assert "timing" not in out


def _child_env():
    # the child imports the same bcscan as this process, installed or not
    src = os.path.dirname(os.path.dirname(bcscan.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bcscan.cli", "scan", "--q", "2", "--max-degree", "4"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "t^4 + t + 1" in proc.stdout


def test_classifying_imports_no_extra_numpy_submodule():
    # each of these costs resident memory in every run (numpy.ma alone
    # about 1.5 MB), and none is needed to classify a prime
    code = (
        "import sys\n"
        "from bcscan import ScanOptions, classify_prime, fq_make, parse_poly\n"
        "opts = ScanOptions(check_local=True, cross_check=True)\n"
        "classify_prime(parse_poly('t^3 - t + 1', fq_make(3, 1)), opts)\n"
        "classify_prime(parse_poly('t^4 + t + 1', fq_make(2, 1)), opts)\n"
        "extra = ('numpy.ma', 'numpy.fft', 'numpy.random', 'numpy.polynomial')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in [x.split('.') for x in extra]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
