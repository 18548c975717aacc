"""Interval branch and bound: certifying a floor under f, or refuting one.

Pointwise grids can miss dips between samples.  The certifier covers the
square [eta, 1-eta]^2 with boxes (only its half x <= y: f is symmetric,
so boxes wholly in x > y are dropped), bounds f on each box with
outward-rounded interval arithmetic, and splits the box with the lowest
bound first: until every box clears the threshold theta, until the
minimum of f is bracketed below it, or until the box budget or the depth
limit runs out.

Run:  python3 demos/04_certificate.py
"""

import ucc

# Comfortably below the true minimum 0.8090...: every box clears.
cert = ucc.certify_lower_bound(theta=0.80, eta=0.01)
print("theta = 0.80")
print("  status      ", cert.status)
print("  boxes       ", cert.boxes_processed,
      "accepted", cert.accepted_boxes, "depth", cert.max_depth_used)
print("  boundary min", cert.boundary.min_value)
print("  digest      ", cert.trace_digest[:16], "(stable across runs)")
assert cert.verified

# Six decimals of headroom left: still verifiable, just more work.
tight = ucc.certify_lower_bound(theta=0.809016, eta=1e-4)
print("\ntheta = 0.809016")
print("  status", tight.status, "after", tight.boxes_processed, "boxes")
assert tight.verified

# Above the minimum: impossible, and the refutation says where it dies.
refuted = ucc.certify_lower_bound(theta=0.81, eta=1e-4)
worst = refuted.worst_box
print("\ntheta = 0.81")
print("  status", refuted.status)
print("  worst box f <=", worst.f_upper)
print("  box center  (%.6f, %.6f)" % ((worst.x_lo + worst.x_hi) / 2,
                                      (worst.y_lo + worst.y_hi) / 2))
print("  true minimizer (%.6f, %.6f)" % (ucc.PHI, ucc.PHI))
assert not refuted.verified

# The certificate never claims more than it checked: the interior
# region and boundary strips are reported explicitly, with the strip
# treatment spelled out in the limitation note.
print("\nregion", cert.region)
print(cert.limitation)
