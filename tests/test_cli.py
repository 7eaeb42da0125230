import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import apparition
from apparition import cli, experiments, partition
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "\uff13"], "not a rational literal: '\uff13'"),
        (["classify", "3\n"], "not a rational literal: '3\\n'"),
        (["index", "\u0663/\u0664", "7"], "not a rational literal: '\u0663/\u0664'"),
        (["index", "3", "1_000_003"], "not a decimal integer: '1_000_003'"),
        (["index", "3", " 7"], "not a decimal integer: ' 7'"),
        (["index", "3", "+7"], "not a decimal integer: '+7'"),
        (["index", "3", "-7"], "not a decimal integer: '-7'"),
        (["index", "3", "\uff17"], "not a decimal integer: '\uff17'"),
        (["partition", "\uff13", "--limit", "100"], "not a rational literal: '\uff13'"),
    ],
    ids=str,
)
def test_literals_take_ascii_digits_alone(argv, message, capsys):
    # int() reads each of these; an answer for one would be an answer to
    # a question nobody wrote
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


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


def test_partition_batch_json(tmp_path, capsys):
    # one JSON array, whose items are the single-t documents in file order
    batch = tmp_path / "batch.txt"
    batch.write_text("3\n# c\n2/7\n")
    args = ["--limit", "100", "--jmax", "2", "--format", "json"]
    assert main(["partition", "--batch", str(batch), *args]) == 0
    docs = json.loads(capsys.readouterr().out)
    singles = []
    for t in ("3", "2/7"):
        assert main(["partition", t, *args]) == 0
        singles.append(json.loads(capsys.readouterr().out))
    assert docs == singles and [doc["t"] for doc in docs] == ["3", "2/7"]


def test_partition_batch_checked_before_any_sweep(tmp_path, capsys, monkeypatch):
    # an excluded t on a later line exits before the sweep of an earlier one
    swept = []
    monkeypatch.setattr(partition, "compute_partition", lambda *args, **kw: swept.append(args))
    batch = tmp_path / "batch.txt"
    batch.write_text("3\n2\n")
    assert main(["partition", "--batch", str(batch), "--limit", "3000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {batch}:2: t = 2 is excluded\n" and captured.out == ""
    assert swept == []


def test_partition_batch_names_a_malformed_line(tmp_path, capsys, monkeypatch):
    # the line number counts comments and blank lines too
    swept = []
    monkeypatch.setattr(partition, "compute_partition", lambda *args, **kw: swept.append(args))
    batch = tmp_path / "batch.txt"
    batch.write_text("# c\n3\n\nfoo\n")
    assert main(["partition", "--batch", str(batch), "--limit", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {batch}:4: not a rational literal: 'foo'\n"
    assert captured.out == "" and swept == []


@pytest.mark.parametrize(
    "t, text, message",
    [
        ([], "# only a comment\n\n", "no t in {batch}"),
        ([], "", "no t in {batch}"),
        (["3"], "2/7\n", "give t or --batch, not both"),
    ],
)
def test_partition_batch_refused_before_any_sweep(t, text, message, tmp_path, capsys, monkeypatch):
    # a batch with no t, or a t beside --batch, exits 1 with nothing swept
    swept = []
    monkeypatch.setattr(partition, "compute_partition", lambda *args, **kw: swept.append(args))
    batch = tmp_path / "batch.txt"
    batch.write_text(text)
    argv = ["partition", *t, "--batch", str(batch), "--limit", "1000"]
    for fmt in ("csv", "json"):
        assert main([*argv, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(batch=batch)}\n" and captured.out == ""
    assert swept == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_partition_without_a_prediction_prints_bare_counts(fmt, capsys):
    # -7 is in the r = 2 gap: a note on stderr, and rows with no prediction
    assert main(["partition", "-7", "--r", "2", "--limit", "20000", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: no supported prediction for t=-7 (no-two-adic-rule)\n"
    if fmt == "csv":
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert len(rows) == 9 and all(row[3:] == ["", "", ""] for row in rows)
    else:
        rows = json.loads(captured.out)["rows"]
        assert len(rows) == 9
        assert all(row[k] is None for row in rows for k in ("predicted", "abs_error", "z_score"))


BELOW_BOUND = "1000000000000000003"  # prime, past the old 2**48 trial-division cap
MERSENNE_89 = str(2**89 - 1)  # prime, past the 3.3 * 10**24 bound of is_prime
# |t| < 2 with den(t) a cube and a fifth power, and num(t) past the bound of is_prime
SMALL_MERSENNE_89 = f"{MERSENNE_89}/{10**30}"
PRIMORIAL_79 = str(math.prod(p for p in range(2, 80) if all(p % q for q in range(2, p))))


def _run_cli(argv, timeout, stdout=subprocess.PIPE, **popen):
    path = [str(Path(apparition.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "apparition.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout, env=env, **popen,
    )


def _close_stdout():
    os.close(1)  # in the child before exec, as the shell's `>&-` does


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first line (as in `... | head -0`): exit
    # 141, as a shell reports a pipe closed on a writer, with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(["verify", "twin", "3", "--limit", "100"], timeout=60, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "twin", "3", "--limit", "100"],
        ["index", "3", "11"],
        ["partition", "3", "--limit", "1000"],
        ["classify", "3"],
    ],
)
def test_no_stdout_exits_1(argv):
    # started with fd 1 closed, Python sets sys.stdout to None and print
    # drops every line: a run that cannot write its output fails, with one
    # error line and no traceback
    proc = _run_cli(argv, timeout=60, stdout=None, preexec_fn=_close_stdout)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_no_stdout_partition_to_file(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["partition", "3", "--limit", "1000", "--out", str(out)]
    proc = _run_cli(argv, timeout=60, stdout=None, preexec_fn=_close_stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    written = out.read_text()
    assert main(argv) == 0
    assert out.read_text() == written and capsys.readouterr().out == ""


def test_unwritable_out_path_exits_1(tmp_path, monkeypatch, capsys):
    # --out is opened after the flag and limit checks and before the first
    # suite runs; the twin suite once ran and printed PASS, and only then
    # did the write fail
    ran = []
    monkeypatch.setattr(experiments, "verify_twin", lambda t, limit: ran.append(t))
    for out in (tmp_path / "missing" / "violations.csv", tmp_path):  # no directory; a directory
        assert main(["verify", "twin", "3", "--limit", "100", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a refused flag or limit comes first, and creates no file
    for argv in (["--kmax", "5", "--limit", "100"], ["--limit", "2"]):
        path = tmp_path / "refused.csv"
        assert main(["verify", "twin", "3", *argv, "--out", str(path)]) == 1
        assert not path.exists() and ran == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        # refused by the row's own call, in the suite, and before --out is opened
        (["verify", "sequences", "3", "--family", "W", "--r", "5"],
         "verify sequences reads --r only for --family subsequence"),
        (["verify", "twin", "0"], "t = 0 is excluded"),
        (["verify", "prop11", "3", "--r", "4"], "r must be prime, got 4"),
        (["verify", "ballot", "--r", "100003"],
         "r * k_max * height bits of t capped at 48000, got 3000090 * 2"),
        (["verify", "bridge", "3"], "verify bridge takes no t"),
    ],
)
def test_refused_run_leaves_out_as_it_was(argv, message, tmp_path, capsys):
    # --out was once opened with mode "w": a refusal raised in the suite
    # emptied an existing file and left a new one behind
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("keep\n" * 3)
    for path in (new, old):
        assert main([*argv, "--limit", "100", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not new.exists() and old.read_text() == "keep\n" * 3
    # a run that writes its violations replaces the old content; a device
    # such as os.devnull, which cannot be emptied, takes them as before
    for path in (old, os.devnull):
        assert main(["verify", "twin", "3", "--limit", "100", "--out", str(path)]) == 0
    assert old.read_text() == "p,expected,actual\n"
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "3", "--r", "x"], "argument --r: invalid int value: 'x'"),
        (["verify", "twin", "3", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["index", "3"], "the following arguments are required: p"),
        (["verify", "nosuch"], None),
        ([], None),
    ],
)
def test_parse_errors_print_one_error_line(argv, message, capsys):
    # argparse once printed its usage block before the error line
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message is None or captured.err == f"error: {message}\n"


def test_help_exits_0():
    proc = _run_cli(["partition", "-h"], timeout=20)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: apparition partition")


@pytest.mark.parametrize("argv", [["index", "3", BELOW_BOUND], ["classify", BELOW_BOUND]])
def test_answers_below_primality_bound(argv):
    # factoring p + 1 and num(t) near 10**18 is rho work, not a refusal
    proc = _run_cli(argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_index_beyond_primality_bound():
    proc = _run_cli(["index", "3", MERSENNE_89], timeout=20)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", SMALL_MERSENNE_89],
        ["partition", SMALL_MERSENNE_89, "--r", "3", "--limit", "1000"],
    ],
)
def test_odd_r_primitivity_beyond_primality_bound(argv):
    # odd-r primitivity lifts the roots of C_r(x) = t q-adically and factors
    # nothing, so a num(t) past the bound of is_prime is no obstacle
    proc = _run_cli(argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "classify":
        assert json.loads(proc.stdout)["per_r"]["3"]["primitive"] is True


def test_classify_many_divisors():
    # 61# has 2**18 divisors; odd-r preimages bisect instead of trying each
    proc = _run_cli(["classify", "117288381359406970983270"], timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["t"] == "117288381359406970983270"


@pytest.mark.parametrize("t", [PRIMORIAL_79, MERSENNE_89])
def test_classify_large_t_without_factoring(t):
    # 79# has 2**22 divisors and 2**89 - 1 is past the bound of is_prime;
    # for |t| > 2 the odd-r preimages bisect over the integers past 2d
    proc = _run_cli(["classify", t], timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["t"] == t


def test_quadmap_limit_capped(capsys):
    assert main(["dynamics", "quadmap", "5", "--limit", "10001"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: limit capped at {experiments.ENUMERATION_CAP} for O(p) scans\n"
    assert captured.out == ""


def test_bridge_limit_capped(capsys):
    # the rank is certified in O(log p), so the bridge takes the chi-per-prime cap
    assert main(["verify", "bridge", "--limit", "10000001"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: limit capped at 10000000 for verify bridge\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ballot", "--r", "100003"], "r * k_max * height bits of t capped at 48000, got 3000090"),
        (["ballot", "--r", "401", "--kmax", "60"], "capped at 48000, got 24060 * 2"),
        (["ballot", "--T", "7", "--Q", "5", "--r", "269"], "capped at 48000, got 8070 * 6"),
        (
            ["sequences", "3", "--family", "subsequence", "--r", "10007", "--limit", "2000"],
            "(r - 1) * (limit + 1)**2 capped at 2 * 10001**2 for subsequence scans",
        ),
        (
            ["sequences", "3", "--family", "subsequence", "--r", "5", "--limit", "7072"],
            "(r - 1) * (limit + 1)**2 capped at 2 * 10001**2 for subsequence scans",
        ),
    ],
)
def test_exact_suites_refuse_growing_work(argv, message, capsys):
    # the exact L_n table and the subsequence scans grow with r: a run past
    # its cap exits 1 before it builds or scans anything
    t0 = time.perf_counter()
    assert main(["verify", *argv]) == 1
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_prop11_takes_any_prime_r(capsys):
    # C_r(t) and U_r(t) come mod p from one ladder, so a large r has no cap
    t0 = time.perf_counter()
    assert main(["verify", "prop11", "3", "--r", "1000003", "--limit", "10000"]) == 0
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == "PASS prop11(t=3, r=1000003): 1228 primes checked, 0 violations\n"
    assert captured.err == ""


def test_partition_refuses_before_sweeping(monkeypatch, capsys):
    # the prediction comes first, so a refused one exits before the sweep starts
    calls = []
    predict, sweep = cli.predicted_densities, partition.compute_partition

    def predict_spy(*args):
        calls.append("predict")
        return predict(*args)

    def sweep_spy(*args, **kwargs):
        calls.append("sweep")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "predicted_densities", predict_spy)
    monkeypatch.setattr(partition, "compute_partition", sweep_spy)
    assert main(["partition", SMALL_MERSENNE_89, "--r", "3", "--limit", "1000"]) == 0
    assert calls == ["predict", "sweep"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--jmax", "-1"], "need limit >= 2, threads >= 1, j_max >= 0"),
        (["--limit", "1"], "need limit >= 2, threads >= 1, j_max >= 0"),
        (["--r", "4"], "r must be prime, got 4"),
        (["--jmax", "65"], "j_max capped at 64"),
        (["--jmax", "100000000"], "j_max capped at 64"),
        (["--threads", "0"], "need limit >= 2, threads >= 1, j_max >= 0"),
    ],
)
def test_partition_argument_errors(argv, message, capsys):
    # checked before the prediction, with the texts the sweep gives
    assert main(["partition", SMALL_MERSENNE_89, "--r", "3", "--limit", "100", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parser_built_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    try:
        for _ in range(5):
            assert main(["index", "3", "11"]) == 0
            assert main(["index", "3"]) == 1
        assert built.count("apparition") == 1
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()


def test_one_argparse_pass_per_call(monkeypatch, capsys):
    # main hands argv to the named command's parser alone; the top-level
    # parser once parsed it first and then called the command's parser
    cli.build_parser()
    parses = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(["index", "3", "11"]) == 0
    assert parses == ["apparition index"]
    capsys.readouterr()


def _call(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # -h prints the help and exits 0
        return exc.code


def test_calls_after_a_usage_error_match_a_fresh_process(monkeypatch, capsys):
    # one parser serves every call; no call may leave state for the next,
    # and whichever parser reads an argv, it answers as a new process does
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    calls = [
        ["index", "3"],
        ["index", "3", "11"],
        ["index", "-8/19", "11"],
        ["index", "--", "-3", "11"],
        ["index", "-h"],
        ["classify", "-8/19"],
        ["partition", "--r", "3", "--limit", "100", "2/7"],
        ["partition", "-8/19", "--limit", "100", "--format", "json"],
        ["partition", "3", "--r", "x"],
        ["verify", "twin", "--limit", "100", "-7"],
        ["verify", "twin", "--limit", "100", "--", "-8/19"],
        ["verify", "bridge", "--limit", "100", "3"],
        ["verify", "twin", "3", "--bogus", "1"],
        ["verify", "nosuch"],
        ["dynamics", "quadmap", "5", "--limit", "100"],
        ["dynamics", "quadmap", "--limit", "100", "5"],
        ["dynamics", "chebyshev", "--limit", "100"],
        ["dynamics", "chebyshev", "3", "--k", "2", "--nmax", "12", "--limit", "1000"],
        ["nondivisor", "--r", "3", "--limit", "1000", "3", "-8/19", "-33/19"],
        ["-h"],
        [],
        ["nosuch", "3"],
        ["--limit", "100", "index", "3", "11"],
    ]
    for argv in calls:
        code = _call(argv)
        captured = capsys.readouterr()
        fresh = _run_cli(argv, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize(
    "argv, moved, code",
    [
        (["verify", "twin", "3", "--limit", "100"], ["verify", "twin", "--limit", "100", "3"], 0),
        (["dynamics", "quadmap", "5", "--limit", "100"],
         ["dynamics", "quadmap", "--limit", "100", "5"], 0),
        (["dynamics", "chebyshev", "3", "--nmax", "12", "--limit", "1000"],
         ["dynamics", "chebyshev", "--nmax", "12", "--limit", "1000", "3"], 0),
        (["verify", "twin", "-7", "--limit", "100"], ["verify", "twin", "--limit", "100", "-7"], 0),
        (["verify", "bridge", "3", "--limit", "100"], ["verify", "bridge", "--limit", "100", "3"], 1),
        (["verify", "twin", "3", "--kmax", "5", "--limit", "100"],
         ["verify", "twin", "--limit", "100", "--kmax", "5", "3"], 1),
    ],
)
def test_options_may_come_before_the_optional_positional(argv, moved, code, capsys):
    # verify and dynamics parse intermixed: `verify twin --limit 100 3` once
    # exited 1 with "unrecognized arguments: 3", though `partition --limit
    # 100 3` ran
    outcomes = []
    for a in (argv, moved):
        assert main(a) == code
        outcomes.append(capsys.readouterr())
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "argv, limit",
    [(["--limit", "2"], 2), (["--r", "3", "--limit", "3"], 3),
     (["--limit", "2", "--format", "json"], 2)],
    ids=str,
)
def test_partition_that_counts_no_prime_exits_1(argv, limit, capsys):
    # 2 is never counted and 3 = r is excluded: with no prime there is no
    # fit, and a z_score of 0 for each row would read as a perfect one
    assert main(["partition", "3", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: t=3: no prime counted up to {limit}\n"


def test_partition_batch_names_the_t_that_counts_no_prime(tmp_path, capsys):
    # 3 counts 5; for 2/5 the 5 divides den(t) and 3 = r, so nothing is
    # counted, and nothing is printed for either t
    batch = tmp_path / "b.txt"
    batch.write_text("3\n2/5\n", encoding="utf-8")
    for fmt in ("csv", "json"):
        argv = ["partition", "--batch", str(batch), "--r", "3", "--limit", "5", "--format", fmt]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: t=2/5: no prime counted up to 5\n"
    assert main(["partition", "--batch", str(batch), "--r", "3", "--limit", "7"]) == 0
    capsys.readouterr()


def test_partition_limit_cap(capsys):
    assert main(["partition", "3", "--limit", str(10**9)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("t", ["3", "-3", "3/2"])
def test_partition_with_a_huge_r_answers_at_once(capsys, t):
    # the prediction asks whether C_r(x) = t has a rational root; at
    # r = 10**9 + 7 each evaluation of C_r is one ladder of 30 steps, with
    # no coefficient list of C_r, so the whole command takes well under 1 s
    start = time.perf_counter()
    assert main(["partition", t, "--r", "1000000007", "--limit", "1000"]) == 0
    assert time.perf_counter() - start < 10
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("0,") and rows[2].endswith(",1/1000000008,0.000000,-0.000409")


def test_partition_rejects_non_prime_r(capsys):
    assert main(["partition", "3", "--r", "0", "--limit", "100"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_pass(capsys):
    assert main(["verify", "twin", "3", "--limit", "500"]) == 0
    assert capsys.readouterr().out.startswith("PASS twin")


def test_verify_bridge(capsys):
    assert main(["verify", "bridge", "--T", "2", "--Q", "-1", "--limit", "500"]) == 0
    assert "PASS bridge" in capsys.readouterr().out


def test_verify_all_matches_checked_in_run():
    golden = Path(__file__).resolve().parents[1] / "scripts" / "verify_all_2000.txt"
    proc = _run_cli(["verify", "all", "--limit", "2000"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_text()


def test_report_rows_name_the_options_of_their_command():
    # every option or positional a report row names is one its command
    # parses and notes as given, and every such name is read by some row
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command, rows in (("verify", cli._VERIFY), ("dynamics", cli._DYNAMICS),
                          ("nondivisor", cli._NONDIVISOR)):
        noted = {(a.option_strings or [a.dest])[0] for a in commands[command]._actions
                 if isinstance(a, cli._Given)}
        assert set().union(*(flags for _, _, flags in rows.values())) == noted, command


def test_verify_choices_dispatch_to_experiments(monkeypatch, capsys):
    # every suite but "all" calls one public function of experiments,
    # looked up at call time, and no two suites call the same one; bridge
    # and ballot read (T, Q), not t
    called = []
    for name, fn in list(vars(experiments).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            def double(*args, _name=name, **kwargs):
                called.append(_name)
                return CheckReport(name=_name, primes_checked=1)
            monkeypatch.setattr(experiments, name, double)
    verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
    choices = next(a.choices for a in verify._actions if a.dest == "suite")
    assert choices[-1] == "all"
    seen = set()
    for suite in choices[:-1]:
        called.clear()
        t = [] if suite in ("bridge", "ballot") else ["3"]
        assert main(["verify", suite, *t, "--limit", "10"]) == 0, suite
        assert len(called) == 1, (suite, called)
        assert capsys.readouterr().out == f"PASS {called[0]}: 1 primes checked, 0 violations\n"
        seen.add(called[0])
    assert len(seen) == len(choices) - 1


def test_verify_all_reports_every_failure(monkeypatch, tmp_path, capsys):
    reps = [CheckReport(name="a", primes_checked=2), CheckReport(name="b", primes_checked=3)]
    reps[0].record(5, "x", "y")
    reps[1].record(7, "u", "v")
    reps[1].record(11, "s", "t")
    monkeypatch.setattr(experiments, "all_suites", lambda limit: iter(reps))
    out = tmp_path / "viol.csv"
    assert main(["verify", "all", "--limit", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().out == (
        "FAIL a: 2 primes checked, 1 violations\nFAIL b: 3 primes checked, 2 violations\n"
    )
    assert out.read_text() == "p,expected,actual\n5,x,y\n7,u,v\n11,s,t\n"


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


def test_suite_refuses_excluded_t_before_checking(capsys):
    assert main(["verify", "splitting", "2", "--r", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: t = 2 is excluded\n" and captured.out == ""


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


@pytest.mark.parametrize(
    "suite, argv, fn",
    [
        ("prop11", ["3", "--r", "3"], "verify_prop11"),
        ("twin", ["3"], "verify_twin"),
        ("cubic", ["2/7"], "verify_cubic_associates"),
        ("circular", ["6/5"], "verify_circular"),
        ("ballot", [], "ballot_check"),
        ("all", [], "all_suites"),
        ("bridge", [], "verify_bridge"),
    ],
)
def test_chi_suites_capped_by_cost(suite, argv, fn, monkeypatch, capsys):
    # the suites that compute chi at every prime take a limit up to a cap
    # sized by their cost, below LIMIT_CAP; past it they refuse at once
    cap = cli._VERIFY[suite][1]
    assert cap < LIMIT_CAP
    assert main(["verify", suite, *argv, "--limit", str(cap + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: limit capped at {cap} for verify {suite}\n"
    assert captured.out == ""
    limits = []

    def double(*args, **kwargs):
        limits.append(args[-1])  # every one of them takes the limit last
        rep = CheckReport(name=suite, primes_checked=1)
        return iter([rep]) if fn == "all_suites" else rep

    monkeypatch.setattr(experiments, fn, double)
    assert main(["verify", suite, *argv, "--limit", str(cap)]) == 0
    assert limits == [cap]


def test_limit_three_checks_one_prime(capsys):
    assert main(["verify", "twin", "3", "--limit", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS twin(t=3): 1 primes checked")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["prop11", "3", "--r", "2", "--limit", "3"], "prop11(t=3, r=2)"),
        (["splitting", "3", "--r", "3", "--limit", "5"], "splitting(t=3, r=3)"),
    ],
)
def test_suite_that_checks_no_prime_exits_1(argv, name, capsys):
    # every prime up to the limit is one the suite's parameters exclude:
    # the suite would pass vacuously, so it prints an error, not PASS
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} checked no prime up to {argv[-1]}\n"
    assert captured.out == ""


def test_verify_all_runs_past_a_suite_that_checks_no_prime(monkeypatch, capsys):
    # the other suites still run and print; the identity suite visits no
    # prime by design and passes; a failing suite makes the exit 2
    reps = [
        CheckReport(name="a", primes_checked=2),
        CheckReport(name="b"),
        CheckReport(name="identity", metrics={"identities": 1}),
    ]
    monkeypatch.setattr(experiments, "all_suites", lambda limit: iter(reps))
    assert main(["verify", "all", "--limit", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: b checked no prime up to 3\n"
    assert captured.out == (
        "PASS a: 2 primes checked, 0 violations\n"
        "PASS identity: 0 primes checked, 0 violations; identities 1\n"
    )
    reps[0].record(3, "x", "y")
    assert main(["verify", "all", "--limit", "3"]) == 2
    assert capsys.readouterr().err == "error: b checked no prime up to 3\n"


def test_verify_all_at_seven_checks_a_prime_in_every_suite(capsys):
    assert main(["verify", "all", "--limit", "7"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("PASS ") == 21


def test_sequences_rejects_unknown_family(capsys):
    assert main(["verify", "sequences", "3", "--family", "foo", "--limit", "2"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'foo'" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="unknown family 'foo'"):
        experiments.sequence_divisor_check(3, "foo", 2)
    # the names of SEQUENCE_FAMILIES, spelled exactly as the CLI accepts them
    for family in ("w", "Subsequence"):
        assert main(["verify", "sequences", "3", "--family", family, "--limit", "2"]) == 1
        with pytest.raises(ValueError, match=f"unknown family '{family}'"):
            experiments.sequence_divisor_check(3, family, 2)
    capsys.readouterr()


def test_quadmap_takes_t_as_the_positional(capsys):
    assert main(["dynamics", "quadmap", "--t", "5", "--limit", "100"]) == 1
    assert "unrecognized arguments: --t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "splitting", "3", "--r", "3", "--nmax", "5"],  # C_243
        ["verify", "splitting", "3", "--r", "17"],  # C_289 at the default --nmax 2
        ["verify", "splitting", "3", "--r", "2", "--nmax", "8"],  # C_256
        ["verify", "splitting", "3", "--r", "2", "--jmax", "10"],  # C_{2^8}
    ],
)
def test_splitting_degree_bound(argv, capsys):
    assert main(argv + ["--limit", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: polynomial degree capped at {experiments.DEGREE_CAP}")
    assert captured.out == ""


def test_splitting_at_degree_bound(capsys):
    # --nmax 2 runs for every prime r <= 13: C_169 is exactly at the bound
    assert experiments.DEGREE_CAP == 13**2
    assert main(["verify", "splitting", "3", "--r", "13", "--limit", "200"]) == 0
    assert capsys.readouterr().out.startswith("PASS splitting(t=3, r=13): ")


def test_orbit_nmax_bound(capsys):
    # a hit at step n needs p >= 4*k**n - 1, so n <= 24 below LIMIT_CAP;
    # past 64 steps each prime only pays for the loop
    assert main(["dynamics", "chebyshev", "3", "--nmax", "64", "--limit", "100"]) == 0
    capsys.readouterr()
    assert main(["dynamics", "chebyshev", "3", "--nmax", "65", "--limit", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need k >= 2 and 0 <= n_max <= 64") and captured.out == ""


def test_splitting_jmax_bound(capsys):
    # refused before any prime is visited, however large the limit
    argv = ["verify", "splitting", "3", "--r", "3", "--jmax", "10000", "--limit", "100000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need 1 <= j_max <= 17") and captured.out == ""


def test_splitting_limit_cap(capsys):
    cap = experiments.SPLITTING_LIMIT_CAP
    assert cap == 10**5
    assert main(["verify", "splitting", "3", "--r", "3", "--limit", str(cap + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: limit capped at {cap} for the splitting suite\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "cubic", "3"], "t = 3 is not cubic"),
        (["verify", "circular", "3"], "t = 3 is not circular"),
        (["verify", "sequences", "3", "--family", "S"], "t = 3 is not cubic"),
        (["verify", "twin"], "t is required"),
        (["verify", "splitting", "--r", "3"], "t is required"),
        (["dynamics", "quadmap"], "t is required"),
        (["dynamics", "chebyshev"], "x0 is required"),
        (["verify", "bridge", "3"], "verify bridge takes no t"),
        (["verify", "bridge", "2"], "verify bridge takes no t"),
        (["verify", "ballot", "5/2"], "verify ballot takes no t"),
        (["verify", "all", "3"], "verify all takes no t"),
        (["verify", "twin", "3", "--kmax", "5"], "verify twin does not read --kmax"),
        (["dynamics", "quadmap", "5", "--k", "3"], "dynamics quadmap does not read --k"),
        (["verify", "sequences", "3", "--family", "W", "--r", "5"],
         "verify sequences reads --r only for --family subsequence"),
    ],
)
def test_error_messages_name_the_problem(argv, message, capsys):
    # these once printed only "error: t = 3" or "error: not a rational literal: None";
    # bridge and ballot read (T, Q) and all its own parameters, and a t given
    # to them once ran the defaults and passed, as a flag the suite does not
    # read once was dropped, and as the W family once dropped --r
    assert main(argv + ["--limit", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
