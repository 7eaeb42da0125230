"""Index of appearance of second-order linear recurrences mod p.

Computes chi(t, p) (the order of the recurrence matrix D_t in the
determinant-one group mod p), classifies rational parameters into the
exact density taxonomy, predicts the prime densities of the sets
{p : r^j exactly divides chi(t, p)}, and verifies both the densities
and the exact per-prime relations by sweeps over all primes up to N.
"""

from fractions import Fraction as Rational

from .classify import ParamClass, Prediction, classify, predicted_densities
from .exactnum import is_square, parse_rational, rth_root
from .partition import PartitionReport, compare, compute_partition, merge_reports
from .primes import factorize, sieve
from .ring import ModParam, RingElem, element_order, group_order, index, index_by_scan, reduce_param

__all__ = [
    "Rational",
    "ParamClass",
    "Prediction",
    "classify",
    "predicted_densities",
    "is_square",
    "parse_rational",
    "rth_root",
    "PartitionReport",
    "compare",
    "compute_partition",
    "merge_reports",
    "factorize",
    "sieve",
    "ModParam",
    "RingElem",
    "element_order",
    "group_order",
    "index",
    "index_by_scan",
    "reduce_param",
]

__version__ = "0.1.0"
