"""record_obj: a result record's report keys are its fields, in field order."""

import json
from fractions import Fraction

from ucc import report
from ucc.analytic.certify import Certificate, EdgeBounds, ViolationBox


def test_refuted_certificate_nests_boxes_and_scan():
    near = ViolationBox(0.6171875, 0.6181640625, 0.6171875, 0.6181640625,
                        0.8090170)
    best = ViolationBox(0.6176, 0.6182, 0.6176, 0.6182, 0.8090169)
    cert = Certificate(
        threshold=0.95, eta=0.01,
        boxes_processed=2958, max_depth_used=33, verified=False,
        status="refuted", accepted_boxes=0,
        violation_boxes=(best, near), worst_box=best,
        boundary=EdgeBounds(0.0625, 0.85, 0.82, 0.81),
        trace_digest="ab" * 32)
    obj = report.record_obj(cert)
    assert list(obj) == list(Certificate._fields)
    box = {"x_lo": 0.6176, "x_hi": 0.6182, "y_lo": 0.6176, "y_hi": 0.6182,
           "f_upper": 0.8090169}
    assert obj["violation_boxes"] == [box, report.record_obj(near)]
    assert list(obj["violation_boxes"][1]) == list(ViolationBox._fields)
    assert obj["worst_box"] == box
    assert obj["boundary"] == {"delta": 0.0625, "low_strip": 0.85,
                               "high_strip": 0.82, "corner": 0.81}
    assert list(obj["boundary"]) == list(EdgeBounds._fields)
    assert obj["trace_digest"] == "ab" * 32
    # every nested value is plain JSON: lists and dicts, never tuples
    assert json.loads(json.dumps(obj)) == obj


def test_fraction_and_none():
    assert report.record_obj(Fraction(3, 8)) == {"num": 3, "den": 8}
    assert report.record_obj(Fraction(0)) == {"num": 0, "den": 1}
    assert report.record_obj(None) is None
    assert report.render({"v": report.record_obj(None)}) == '{"v":null}\n'
