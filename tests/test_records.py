"""Result records are NamedTuples; only SetFamily and Interval are dataclasses.

Building a frozen dataclass generates and execs six methods, about 1 ms a
class at import; a NamedTuple costs a fraction of that.  The guard below
keeps the records from drifting back, and the field pins keep a reordered
field from silently changing positional construction.  A second import
probe keeps ``hashlib``, which loads OpenSSL, out of every verb's start-up.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ucc
from ucc.analytic.certify import BoundaryScan

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

# wraps dataclasses.dataclass before ucc is imported and lists the ucc
# classes it decorates
_PROBE = """
import dataclasses, json
decorated = []
_dataclass = dataclasses.dataclass

def counting(cls=None, /, **kwargs):
    def wrap(c):
        if c.__module__.startswith("ucc"):
            decorated.append(c.__name__)
        return _dataclass(c, **kwargs)
    return wrap if cls is None else wrap(cls)

dataclasses.dataclass = counting
import ucc.cli
print(json.dumps(sorted(decorated)))
"""

RECORD_FIELDS = {
    ucc.DiagonalMinimum: ("x_star", "value", "grid_points", "refine_tol"),
    ucc.GridCheck: ("min_margin", "argmin", "argmin_margin", "grid_points"),
    BoundaryScan: ("points_per_strip", "min_value", "min_location",
                   "all_above_threshold"),
    ucc.Certificate: ("threshold", "eta", "region", "boxes_processed",
                      "max_depth_used", "verified", "status",
                      "accepted_boxes", "indeterminate_boxes",
                      "violation_boxes", "worst_box", "boundary",
                      "trace_digest", "limitation"),
    ucc.FrequencyProfile: ("freq", "max_freq", "argmax", "p_min_zero"),
    ucc.UnionDistribution: ("universe_size", "unions", "counts",
                            "pair_count", "entropy_bits"),
    ucc.BoundReport: ("check", "lhs_bits", "rhs_bits", "margin_bits",
                      "satisfied", "applicable", "inputs"),
    ucc.TheoremReport: ("family_size", "epsilon", "delta", "psi_minus_delta",
                        "max_freq", "applicable", "satisfied"),
    ucc.ExampleSpec: ("n", "k", "m"),
    ucc.ExampleStats: ("n", "k", "m", "log2_f1", "log2_f2", "size_ratio",
                       "max_freq_exact", "closure_deficit",
                       "log2_inv_closure_deficit", "delta",
                       "psi_minus_delta"),
}


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_decorates_only_the_behaviour_classes():
    assert set(json.loads(_probe(_PROBE))) == {"SetFamily", "Interval"}


def test_import_leaves_hashlib_unloaded():
    # only `analytic certify` hashes, and imports hashlib when it does
    out = _probe("import sys, ucc.cli; print('hashlib' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("record", list(RECORD_FIELDS),
                         ids=lambda r: r.__name__)
def test_record_fields_pinned(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[record]


def test_record_defaults():
    assert ucc.Certificate._field_defaults == {
        "limitation": "certificate covers only the eta-interior; boundary "
                      "strips are sampled, not certified"}
    assert ucc.BoundReport._field_defaults == {}
    # __new__ fills the default k and m into the tuple itself
    assert ucc.ExampleSpec(1000) == (1000, 482, 619)
