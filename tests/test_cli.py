"""CLI behavior: arguments, formats, exit codes."""

import dataclasses
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time

import pytest

import bcscan
from bcscan import cli, herbrand
from bcscan.fields import ConsistencyError, fq_make
from bcscan.localfield import MAX_LOCAL_SIZE
from bcscan.lseries import CharacterContext
from bcscan.poly import Poly, monic_irreducibles, poly_to_str
from bcscan.witt import PrecisionError


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
        ["classify", "--q", "2", "--prime", "t^\u0664 + t + \u0661"],
        ["bc", "--q", "3", "--prime", "t^2 + \u0661"],
        ["scan", "--q", "4", "--fq-modulus", "x^\u0662 + x + 1", "--max-degree", "2"],
        ["scan", "--q", "\u0662", "--max-degree", "3"],
        ["scan", "--q", "2", "--max-degree", "\u0663"],
        ["scan", "--q", "2", "--max-degree", "3", "--threads", "\u0661"],
        ["classify", "--q", "2", "--prime", "t + 1", "--precision", "\u0661\u0662"],
        ["bc", "--q", "\u0662", "--prime", "t + 1"],
    ],
)
def test_non_ascii_digits_exit_1(args, capsys):
    # Arabic-Indic digits; read as the ASCII ones, each command would run
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bcscan: ") and "Traceback" not in err


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


def test_a_reducible_prime_exits_1(capsys):
    code, out, err = run(["classify", "--q", "2", "--prime", "t^4 + t^2 + 1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bcscan: ") and "not irreducible" in err


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


def test_precision_cap_exits_1(capsys, monkeypatch):
    def saturated(*a, **k):
        raise PrecisionError("valuation still saturated at the precision cap 96")

    monkeypatch.setattr(herbrand, "pic_eigenspace_length", saturated)
    # v(L_5) = 1 at t^4 + t + 1, so at precision 1 the table saturates
    # there and the valuation is escalated
    args = ["classify", "--q", "2", "--prime", "t^4 + t + 1", "--precision", "1"]
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert err == "bcscan: valuation still saturated at the precision cap 96\n"


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


STEPS = r"(?: field=\d+\.\d{6}s bc=\d+\.\d{6}s(?: classify=\d+\.\d{6}s)?)?"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_timings_time_every_scanned_prime(threads, capfd):
    # fd-level capture: a worker process writes its primes' lines itself
    args = ["scan", "--q", "2", "--max-degree", "5", "--threads", threads]
    assert cli.main(args) == 0
    plain = capfd.readouterr()
    assert cli.main(args + ["--timings"]) == 0
    timed = capfd.readouterr()
    assert timed.out == plain.out and plain.err == ""
    lines = timed.err.splitlines()
    assert len(lines) == 14
    assert all(re.fullmatch(r"timing [^:]+:" + STEPS, line) for line in lines), lines
    steps = {line[7 : line.index(":")]: line[line.index(":") + 1 :].split() for line in lines}
    F2 = fq_make(2, 1)
    assert sorted(steps) == sorted(poly_to_str(f) for d in range(1, 6) for f in monic_irreducibles(F2, d))
    # a degree-one prime runs no step, a regular one stops at its BC vector
    assert steps["t"] == [] and len(steps["t^3 + t + 1"]) == 2
    assert [s.split("=")[0] for s in steps["t^4 + t + 1"]] == ["field", "bc", "classify"]


def test_classify_timings_write_one_line(capfd):
    args = ["classify", "--q", "2", "--prime", "t^4 + t + 1"]
    assert cli.main(args) == 0
    plain = capfd.readouterr()
    assert cli.main(args + ["--timings"]) == 0
    timed = capfd.readouterr()
    assert timed.out == plain.out
    (line,) = timed.err.splitlines()
    assert re.fullmatch(r"timing t\^4 \+ t \+ 1: field=\S+ bc=\S+ classify=\S+", line)


def test_bc_out_is_left_as_it_was_when_the_move_fails(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bc.txt"
    path.write_bytes(b"earlier output\n")

    def refuse(*_):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(["bc", "--q", "2", "--prime", "t^4 + t + 1", "--out", str(path)], capsys)
    assert code == 1 and "rename refused" in err and out == ""
    assert path.read_bytes() == b"earlier output\n"
    assert os.listdir(tmp_path) == ["bc.txt"]  # no .part file beside it


def test_bc_out_writes_the_residues(tmp_path, capsys):
    path = tmp_path / "bc.txt"
    _, shown, _ = run(["bc", "--q", "2", "--prime", "t^4 + t + 1"], capsys)
    code, out, _ = run(["bc", "--q", "2", "--prime", "t^4 + t + 1", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == shown
    assert os.listdir(tmp_path) == ["bc.txt"]


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


def _run_cli_child(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bcscan.cli", *args],
        capture_output=True,
        text=True,
        env=_child_env(),
        **kwargs,
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_reader_that_closes_early_ends_the_scan_quietly(threads):
    # 141 KB of CSV overfills the pipe, so the scan writes into a closed
    # one; with workers, their queued chunks are dropped, not run
    proc = subprocess.Popen(
        [sys.executable, "-m", "bcscan.cli", "scan", "--q", "2", "--max-degree", "8",
         "--format", "csv", "--threads", threads],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline().startswith(b"q,prime,degree,n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0 and err == b""


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return {int(c) for c in fh.read().split()}
    except OSError:
        return set()


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="reads /proc")
def test_sigterm_stops_the_scan_and_its_workers():
    # two workers and the multiprocessing resource tracker; at D = 13 the
    # scan runs long enough to be stopped part way
    proc = subprocess.Popen(
        [sys.executable, "-m", "bcscan.cli", "scan", "--q", "2", "--max-degree", "13",
         "--threads", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    children = set()
    try:
        deadline = time.monotonic() + 30
        while len(children) < 3 and time.monotonic() < deadline and proc.poll() is None:
            children |= _children(proc.pid)
            time.sleep(0.05)
        assert len(children) == 3 and proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 143
        assert proc.stderr.read() == b""
        deadline = time.monotonic() + 30
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [c for c in children if _running(c)] == []
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        for c in children:
            if _running(c):
                os.kill(c, signal.SIGKILL)


def test_a_guarded_script_scans_with_worker_processes(tmp_path):
    # spawned workers import the script as their main module; the guard
    # keeps them from scanning again
    script = tmp_path / "guarded.py"
    script.write_text(
        "import sys\n"
        "from bcscan import emit, fq_make, scan\n"
        "if __name__ == '__main__':\n"
        "    sys.stdout.write(emit(scan(fq_make(3), 3), 'json'))\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**_child_env(), "BCSCAN_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _run_cli_child(
        ["scan", "--q", "3", "--max-degree", "3", "--format", "json", "--threads", "1"],
        timeout=120,
    ).stdout


def test_a_huge_prime_q_is_refused_before_factoring():
    # 2^61 - 1 is prime: trial division to its square root would take
    # about 1.5e9 steps; the timeout fails the test instead of hanging
    proc = _run_cli_child(["scan", "--q", str(2**61 - 1), "--max-degree", "1"], timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("bcscan: q = 2305843009213693951 exceeds"), proc.stderr


def test_a_prime_q_above_2_to_the_15_runs(capsys):
    # the F_p digits of q = 32771 do not fit int16
    code, out, err = run(["classify", "--q", "32771", "--prime", "t + 3", "--cross-check"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("prime  indices  dim\nt + 3  {}\n")
    code, out, err = run(["bc", "--q", "32771", "--prime", "t + 5"], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 32769


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_huge_max_degree_is_refused_before_allocating():
    # 4^(10^11) has 2 * 10^11 bits; the child runs under a 1 GB address
    # space limit and a timeout, so forming it fails the test, not the host
    proc = _run_cli_child(
        ["scan", "--q", "4", "--max-degree", "100000000000"],
        timeout=30,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("bcscan: residue fields beyond 2^16"), proc.stderr


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


@pytest.mark.parametrize("flag", ["--check-local", "--cross-check"])
def test_a_fault_at_a_regular_prime_still_exits_2(flag, capsys, monkeypatch):
    # no prime of degree <= 3 over F_2 is irregular, so every report is
    # dropped; a check flag still checks each prime on the way
    real_sweep, real_valuation = herbrand.bc_local_sweep, CharacterContext.valuation

    def skewed_sweep(model):
        sweep = real_sweep(model)
        if model.rf.size != 8:
            return sweep
        values = dict(sweep.values)
        values[3] = (values[3] + 1) % 8
        return dataclasses.replace(sweep, values=values)

    def skewed_valuation(self, n):
        return real_valuation(self, n) + (self.rf.size == 8 and n == 3)

    monkeypatch.setattr(herbrand, "bc_local_sweep", skewed_sweep)
    monkeypatch.setattr(CharacterContext, "valuation", skewed_valuation)
    args = ["scan", "--q", "2", "--max-degree", "3", "--threads", "1"]
    code, out, _ = run(args, capsys)
    assert code == 0 and "0 irregular" in out
    code, _, err = run(args + [flag], capsys)
    assert code == 2 and "consistency failure" in err
    assert ("n=3" if flag == "--check-local" else "L_3") in err


def test_a_failure_mid_scan_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    real, seen = herbrand._valuation_table, []

    def second_fails(rf, k):
        seen.append(poly_to_str(Poly(rf.base, rf.prime_coeffs)))
        if len(seen) == 2:
            raise ConsistencyError("injected at the second irregular prime")
        return real(rf, k)

    monkeypatch.setattr(herbrand, "_valuation_table", second_fails)
    args = ["scan", "--q", "3", "--max-degree", "3", "--format", "json", "--threads", "1"]
    path = tmp_path / "scan.json"
    code, out, err = run(args + ["--out", str(path)], capsys)
    assert code == 2 and out == "" and "injected" in err
    assert seen == ["t^3 - t + 1", "t^3 - t - 1"]  # a default scan classifies irregular primes only
    assert os.listdir(tmp_path) == []
    path.write_text("kept", encoding="utf-8")
    seen.clear()
    assert run(args + ["--out", str(path)], capsys)[0] == 2
    assert os.listdir(tmp_path) == ["scan.json"] and path.read_text(encoding="utf-8") == "kept"
    # on standard output the first report is already written
    seen.clear()
    code, out, _ = run(args, capsys)
    assert code == 2 and '"prime": "t^3 - t + 1"' in out and "t^3 - t - 1" not in out


@pytest.mark.parametrize("out", ["directory", "missing/out.txt"])
@pytest.mark.parametrize("command", ["classify", "bc"])
def test_an_unwritable_out_is_refused_before_the_prime_is_built(command, out, tmp_path, capsys,
                                                                 monkeypatch):
    def never(*_):
        raise AssertionError("the prime's residue field was built")

    monkeypatch.setattr(herbrand, "residue_field", never)
    monkeypatch.setattr(cli, "residue_field", never)
    (tmp_path / "directory").mkdir()
    path = tmp_path / out
    code, stdout, err = run([command, "--q", "2", "--prime", "t^4 + t + 1", "--out", str(path)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("bcscan: ") and err.rstrip().endswith(repr(str(path)))
    assert os.listdir(tmp_path) == ["directory"] and os.listdir(tmp_path / "directory") == []


@pytest.mark.parametrize("out", ["directory", "missing/scan.json"])
def test_an_unwritable_out_is_refused_before_any_prime(out, tmp_path, capsys, monkeypatch):
    def never(*_):
        raise AssertionError("a prime was classified")

    monkeypatch.setattr(herbrand, "bc_numbers", never)
    (tmp_path / "directory").mkdir()
    path = tmp_path / out
    code, stdout, err = run(["scan", "--q", "2", "--max-degree", "10", "--out", str(path)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("bcscan: ") and err.rstrip().endswith(repr(str(path)))
    assert os.listdir(tmp_path) == ["directory"] and os.listdir(tmp_path / "directory") == []
