import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apparition
from apparition import experiments
from apparition.cli import LIMIT_CAP, main
from apparition.experiments import CheckReport


def test_index(capsys):
    assert main(["index", "3", "11"]) == 0
    assert capsys.readouterr().out.strip() == "chi(3,11) = 5"


def test_index_rational(capsys):
    assert main(["index", "2/7", "5"]) == 0
    assert capsys.readouterr().out.strip() == "chi(2/7,5) = 6"


def test_index_invalid(capsys):
    assert main(["index", "3", "12"]) == 1
    assert main(["index", "abc", "11"]) == 1
    assert main(["index", "2/7", "7"]) == 1  # denominator divisible
    assert "error:" in capsys.readouterr().err


def test_classify(capsys):
    assert main(["classify", "2/7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cubic"] is True
    assert doc["cubic_b"] == "8/7"
    assert doc["cubic_associates"] == ["11/7", "-13/7"]


def test_classify_excluded(capsys):
    assert main(["classify", "2"]) == 1
    assert "excluded" in capsys.readouterr().err


def test_partition_csv(capsys):
    assert main(["partition", "3", "--r", "2", "--limit", "20", "--jmax", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "j,count,empirical,predicted,abs_error,z_score"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [2, 3, 1, 1]


def test_partition_json(capsys):
    assert main(
        ["partition", "3", "--r", "2", "--limit", "20", "--jmax", "3", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["j_counts"] == [2, 3, 1, 1]


def test_partition_threads_identical(capsys):
    main(["partition", "2/7", "--r", "3", "--limit", "2000", "--jmax", "4"])
    one = capsys.readouterr().out
    main(["partition", "2/7", "--r", "3", "--limit", "2000", "--jmax", "4", "--threads", "2"])
    two = capsys.readouterr().out
    assert one == two


def test_partition_out_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["partition", "3", "--limit", "20", "--jmax", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith("j,count,")
    capsys.readouterr()


def test_partition_batch(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("# demo\n3\n2/7\n")
    assert main(["partition", "--batch", str(batch), "--limit", "100", "--jmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "# t=3" in out and "# t=2/7" in out


def test_index_beyond_factor_bound():
    # p is prime, but factoring p + 1 would sieve base primes up to 10**9
    path = [str(Path(apparition.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "apparition.cli", "index", "3", "1000000000000000003"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_partition_limit_cap(capsys):
    assert main(["partition", "3", "--limit", str(10**9)]) == 1
    capsys.readouterr()


def test_partition_rejects_non_prime_r(capsys):
    assert main(["partition", "3", "--r", "0", "--limit", "100"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_pass(capsys):
    assert main(["verify", "twin", "3", "--limit", "500"]) == 0
    assert capsys.readouterr().out.startswith("PASS twin")


def test_verify_bridge(capsys):
    assert main(["verify", "bridge", "--T", "2", "--Q", "-1", "--limit", "500"]) == 0
    assert "PASS bridge" in capsys.readouterr().out


def test_verify_failure_exit_code(monkeypatch, capsys):
    rep = CheckReport(name="twin(t=3)", primes_checked=1)
    rep.record(7, "x", "y")
    monkeypatch.setattr(experiments, "verify_twin", lambda t, limit: rep)
    assert main(["verify", "twin", "3", "--limit", "10"]) == 2
    assert capsys.readouterr().out.startswith("FAIL")


def test_verify_violations_csv(monkeypatch, tmp_path, capsys):
    rep = CheckReport(name="twin(t=3)", primes_checked=1)
    rep.record(7, "chi=8", "9")
    monkeypatch.setattr(experiments, "verify_twin", lambda t, limit: rep)
    out = tmp_path / "viol.csv"
    assert main(["verify", "twin", "3", "--limit", "10", "--out", str(out)]) == 2
    assert out.read_text() == "p,expected,actual\n7,chi=8,9\n"
    capsys.readouterr()


def test_dynamics_quadmap(capsys):
    assert main(["dynamics", "quadmap", "5", "--limit", "500"]) == 0
    assert "PASS quadmap" in capsys.readouterr().out


def test_dynamics_chebyshev(capsys):
    assert main(["dynamics", "chebyshev", "3", "--k", "2", "--nmax", "12", "--limit", "3000"]) == 0
    out = capsys.readouterr().out
    assert "PASS chebyshev-orbit" in out and "N=1000" in out


def test_nondivisor(capsys):
    assert main(
        ["nondivisor", "3", "-8/19", "-33/19", "--r", "7", "--limit", "3000"]
    ) == 0
    assert "PASS nondivisor" in capsys.readouterr().out


@pytest.mark.parametrize("T, Q", [("0", "-1"), ("1", "1"), ("2", "1")])
def test_bridge_rejects_excluded_t(T, Q, capsys):
    # T=0, Q=-1 gives t = -2 and T=1, Q=1 gives t = -1: neither has an index
    assert main(["verify", "bridge", "--T", T, "--Q", Q, "--limit", "100"]) == 1
    captured = capsys.readouterr()
    assert "is excluded" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "chebyshev", "3", "--nmax", "-1", "--limit", "100"],
        ["verify", "ballot", "--r", "3", "--kmax", "0", "--limit", "100"],
        ["verify", "splitting", "3", "--r", "3", "--jmax", "0", "--limit", "100"],
        ["verify", "splitting", "3", "--r", "3", "--nmax", "-1", "--limit", "100"],
    ],
)
def test_vacuous_suite_parameters_rejected(argv, capsys):
    # each of these once printed PASS with nothing checked
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_nondivisor_rejected(capsys):
    assert main(["nondivisor", "3", "1", "3", "--r", "7", "--limit", "100"]) == 1
    capsys.readouterr()


def test_dynamics_and_nondivisor_print_one_summary(capsys):
    assert main(["dynamics", "quadmap", "5", "--limit", "100"]) == 0
    rep = experiments.quadmap_divisor_check(5, 100)
    assert capsys.readouterr().out == rep.summary() + "\n"
    assert main(["nondivisor", "3", "-8/19", "-33/19", "--r", "7", "--limit", "300"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("PASS nondivisor(t=3, Y=[-8/19, -33/19], r=7): ")
    assert "expected 6/343" in out and "criterion_disagreements" in out


def test_dynamics_failure_exit_code(monkeypatch, capsys):
    rep = CheckReport(name="quadmap(t=5)", primes_checked=1, metrics={"density": 0.5})
    rep.record(7, "x", "y")
    monkeypatch.setattr(experiments, "quadmap_divisor_check", lambda t, limit: rep)
    assert main(["dynamics", "quadmap", "5", "--limit", "10"]) == 2
    assert capsys.readouterr().out.startswith("FAIL quadmap(t=5): 1 primes checked, 1 violations")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "prop11", "3", "--r", "4"],
        ["verify", "splitting", "3", "--r", "4"],
        ["verify", "ballot", "--r", "4"],
        ["verify", "sequences", "3", "--family", "subsequence", "--r", "0"],
        ["verify", "sequences", "3", "--family", "subsequence", "--r", "9"],
    ],
)
def test_verify_rejects_non_prime_r(argv, capsys):
    assert main(argv + ["--limit", "200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: r must be prime") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "twin", "3", "--limit", "-5"],
        ["verify", "prop11", "3", "--r", "3", "--limit", "2"],
        ["verify", "bridge", "--limit", "0"],
        ["verify", "sequences", "3", "--limit", "2"],
        ["dynamics", "chebyshev", "3", "--limit", "2"],
        ["dynamics", "quadmap", "5", "--limit", "-1"],
        ["nondivisor", "3", "-8/19", "-33/19", "--limit", "2"],
        ["verify", "prop11", "3", "--r", "3", "--limit", str(LIMIT_CAP + 1)],
        ["verify", "twin", "3", "--limit", str(LIMIT_CAP + 1)],
        ["verify", "cubic", "2/7", "--limit", str(LIMIT_CAP + 1)],
        ["verify", "circular", "6/5", "--limit", str(LIMIT_CAP + 1)],
        ["verify", "bridge", "--limit", str(LIMIT_CAP + 1)],
        ["verify", "ballot", "--limit", str(10**12)],
    ],
)
def test_limit_out_of_range(argv, capsys):
    # a limit below 3 checks no odd prime; above LIMIT_CAP, as for partition
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: limit must be in [3, {LIMIT_CAP}]")
    assert captured.out == ""


def test_limit_three_checks_one_prime(capsys):
    assert main(["verify", "twin", "3", "--limit", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS twin(t=3): 1 primes checked")


def test_sequences_rejects_unknown_family(capsys):
    assert main(["verify", "sequences", "3", "--family", "foo", "--limit", "2"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'foo'" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="unknown family 'foo'"):
        experiments.sequence_divisor_check(3, "foo", 2)
