import json
from fractions import Fraction as F

import pytest

from apparition.classify import classify, predicted_densities
from apparition.errors import ExcludedParameter, UnsupportedPrediction
from apparition.partition import (
    ComparisonRow,
    compare,
    compute_partition,
    counts_rows,
    merge_reports,
    report_to_json,
    rows_to_csv,
)
from apparition import primes
from apparition.primes import sieve
from apparition.ring import index


def test_example_t3_r2():
    # chi over p = 3..19: 4, 10, 8, 5, 14, 18, 9  ->  v_2: 2,1,3,0,1,1,0
    rep = compute_partition(3, 2, 20, j_max=3)
    assert rep.j_counts == [2, 3, 1, 1]
    assert rep.overflow == 0 and rep.total == 7
    assert rep.excluded == {2: "is_two"}
    rep.check_conservation(pi_range=len(sieve(20)))


def test_example_t3_r3():
    # same chi list; v_3 buckets with p = 3 excluded as equals_r
    rep = compute_partition(3, 3, 20, j_max=3)
    assert rep.j_counts == [4, 0, 2, 0]
    assert rep.total == 6
    assert rep.excluded == {2: "is_two", 3: "equals_r"}


def test_denominator_exclusion():
    rep = compute_partition(F(2, 7), 3, 20, j_max=2)
    assert rep.excluded[7] == "divides_denominator"
    assert rep.total == 5


def test_delta_divisors_included():
    # p = 5 divides num(t**2-4) for t = 3; chi = 2p = 10
    assert index(3, 5) == 10
    rep = compute_partition(3, 2, 5, j_max=2)
    assert rep.total == 2  # p = 3 and p = 5 both bucketed


def test_empty_report():
    rep = compute_partition(3, 2, 2, j_max=2)
    assert rep.total == 0 and rep.j_counts == [0, 0, 0]
    assert rep.excluded == {2: "is_two"}


def test_excluded_parameter():
    with pytest.raises(ExcludedParameter):
        compute_partition(2, 2, 100)


def test_overflow_bucket():
    # j_max = 0 pushes every even-chi prime into overflow
    rep = compute_partition(3, 2, 20, j_max=0)
    assert rep.j_counts == [2] and rep.overflow == 5
    rep.check_conservation()


def test_merge_split_halves():
    full = compute_partition(3, 2, 2000, j_max=5)
    lo = compute_partition(3, 2, 1000, j_max=5)
    hi = compute_partition(3, 2, 2000, j_max=5, start=1001)
    merged = merge_reports(lo, hi)
    assert merged.j_counts == full.j_counts
    assert merged.total == full.total
    assert merged.excluded == full.excluded
    with pytest.raises(ValueError):
        merge_reports(lo, full)  # overlapping ranges
    gap_lo = compute_partition(3, 2, 100, j_max=5)
    gap_hi = compute_partition(3, 2, 300, j_max=5, start=200)
    with pytest.raises(ValueError, match="not adjacent"):
        merge_reports(gap_lo, gap_hi)
    with pytest.raises(ValueError, match="not adjacent"):
        merge_reports(gap_hi, gap_lo)


@pytest.mark.parametrize("r", [0, 1, 4])
def test_rejects_non_prime_r(r):
    with pytest.raises(ValueError, match="r must be prime"):
        compute_partition(3, r, 100)


def test_threads_deterministic():
    one = compute_partition(F(2, 7), 3, 3000, j_max=4, threads=1)
    two = compute_partition(F(2, 7), 3, 3000, j_max=4, threads=2)
    assert one == two


def test_sweep_never_factors(monkeypatch):
    # the sweep needs only v_r(chi): no factor table, no trial division,
    # below the old table bound and just above 2**22
    def sweeps():
        return [
            compute_partition(3, 2, limit, start=start, threads=1)
            for start, limit in ((2, 10**4), (2**22 + 1, 2**22 + 2 * 10**4))
        ]

    before = sweeps()

    def refuse(*args, **kwargs):
        raise AssertionError("the partition sweep factored")

    for name in ("factorize", "distinct_prime_factors", "spf_table"):
        monkeypatch.setattr(primes, name, refuse)
    assert sweeps() == before


def test_compare_exact_match_is_zero():
    pred = predicted_densities(classify(3), 2, 1)
    # craft counts equal to expectation: total 36, predicted 1/3 each
    rep = compute_partition(3, 2, 20, j_max=1)
    rep.j_counts = [12, 12]
    rep.overflow = 12
    rep.total = 36
    rows = compare(rep, pred)
    assert rows[0].abs_error == 0.0 and rows[0].z_score == 0.0
    assert rows[0].predicted == F(1, 3)


def test_compare_requires_support():
    rep = compute_partition(-7, 2, 100, j_max=2)
    pred = predicted_densities(classify(-7), 2, 2)
    with pytest.raises(UnsupportedPrediction):
        compare(rep, pred)


def test_csv_format():
    rep = compute_partition(3, 2, 20, j_max=3)
    rows = compare(rep, predicted_densities(classify(3), 2, 3))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "j,count,empirical,predicted,abs_error,z_score"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2"
    assert first[3] == "1/3"
    assert len(first[2].split(".")[1]) == 6  # six decimal places


def test_json_round_trip():
    rep = compute_partition(3, 2, 20, j_max=3)
    rows = compare(rep, predicted_densities(classify(3), 2, 3))
    doc = json.loads(report_to_json(rep, rows))
    assert doc["t"] == "3" and doc["r"] == 2 and doc["total"] == 7
    assert doc["j_counts"] == [2, 3, 1, 1]
    assert doc["rows"][0]["predicted"] == "1/3"
    assert doc["rows"][0]["count"] == 2
    assert doc["excluded"] == {"2": "is_two"}


def test_counts_rows_without_prediction():
    rep = compute_partition(-7, 2, 100, j_max=2)
    rows = counts_rows(rep)
    assert all(r.predicted is None for r in rows)
    text = rows_to_csv(rows)
    assert ",,," in text.split("\n")[1]
