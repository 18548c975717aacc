"""Interval branch and bound: certifying a floor under f, or refuting one.

Pointwise grids can miss dips between samples.  The certifier first
decides, exactly, whether theta lies above the minimum f(phi, phi) =
1/(2 phi): every such threshold is refuted by the point alone.  Otherwise
it covers the square
[eta, 1-eta]^2 with boxes (only its half x <= y: f is symmetric, so boxes
wholly in x > y are dropped), bounds f on each box with outward-rounded
interval arithmetic, and splits every box it cannot decide, depth first,
until every box clears the threshold theta, or it meets the first box it
cannot cover: one wholly below theta, or one that the depth limit or
float precision will not split (the box budget caps the walk too).  Three
proved closed-form bounds cover the strips of width eta around that
square, so a verified certificate holds on all of [0, 1]^2.

Run:  python3 demos/04_certificate.py
"""

import ucc

# Comfortably below the true minimum 0.8090...: every box clears.
cert = ucc.certify_lower_bound(theta=0.80, eta=0.01)
print("theta = 0.80")
print("  status      ", cert.status)
print("  boxes       ", cert.boxes_processed,
      "accepted", cert.accepted_boxes, "depth", cert.max_depth_used)
print("  digest      ", cert.trace_digest[:16],
      "(sha256 of the walk's trail, one byte per box; stable across runs)")
assert cert.verified

# Six decimals of headroom left: still verifiable, just more work.
tight = ucc.certify_lower_bound(theta=0.809016, eta=1e-4)
print("\ntheta = 0.809016")
print("  status", tight.status, "after", tight.boxes_processed, "boxes")
assert tight.verified

# Above the minimum: impossible, and one exact point says so.
refuted = ucc.certify_lower_bound(theta=0.81, eta=1e-4)
(witness,) = refuted.violation_boxes
print("\ntheta = 0.81")
print("  status", refuted.status, "after", refuted.boxes_processed, "boxes")
print("  at (%.6f, %.6f)  f <= %r" % (witness.x_lo, witness.y_lo, witness.f_upper))
print("  true minimum 1/(2 phi) =", ucc.HALF_INV_PHI)
assert not refuted.verified and witness.f_upper < 0.81

# The strips outside the searched region carry proved lower bounds of f.
# At eta = 1e-4 all three clear 0.9; the corner is [1-eta, 1] x [1-delta, 1].
edges = tight.boundary
print("\nsearch square [eta, 1-eta]^2, eta =", tight.eta)
print("  delta      ", edges.delta)
print("  low strip   f >=", edges.low_strip)
print("  high strip  f >=", edges.high_strip)
print("  corner      f >=", edges.corner)
assert min(edges.low_strip, edges.high_strip, edges.corner) >= 0.9

# At eta = 0.05 the edge bounds stay near 0.69: the interior verifies at
# theta = 0.809016, the square does not, and the run says indeterminate.
wide = ucc.certify_lower_bound(theta=0.809016, eta=0.05)
print("\neta = 0.05")
print("  status", wide.status, "after", wide.boxes_processed, "boxes")
print("  smallest edge bound", min(wide.boundary[1:]))
assert wide.status == "indeterminate"

# Within the enclosure slack below the minimum no box around (phi, phi)
# settles: the walk stops at the first such leaf instead of walking on.
near = ucc.certify_lower_bound(theta=ucc.HALF_INV_PHI - 1e-13, eta=1e-4)
print("\ntheta = 1/(2 phi) - 1e-13")
print("  status", near.status, "after", near.boxes_processed, "boxes")
print("  stopped at a leaf with f <=", near.worst_box.f_upper)
assert near.status == "indeterminate" and near.boxes_processed < 10_000

# HALF_INV_PHI itself lies just above 1/(2 phi), so an exact test in
# integers refutes it at the point, before any box.
at_min = ucc.certify_lower_bound(theta=ucc.HALF_INV_PHI, eta=1e-4)
print("\ntheta = HALF_INV_PHI")
print("  status", at_min.status, "after", at_min.boxes_processed, "boxes")
assert (at_min.status, at_min.boxes_processed) == ("refuted", 0)
