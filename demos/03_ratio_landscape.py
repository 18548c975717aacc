"""The two-variable ratio f and its valley at the golden point.

f(x, y) = g(xy) / (g(x) + g(y)) with g(x) = h(x)/x, where h is binary
entropy.  The library's central inequality is f >= 1/(2 phi) on the
open unit square, with equality exactly at x = y = phi.

Run:  python3 demos/03_ratio_landscape.py
"""

import math

import ucc

print("phi          =", ucc.PHI)
print("1/(2 phi)    =", ucc.HALF_INV_PHI)
print("f(phi, phi)  =", ucc.f_ratio(ucc.PHI, ucc.PHI))

# One-dimensional slice first: along the diagonal the ratio
# r(x) = 2 f(x, x) = g(x^2)/g(x) is smooth with a single interior minimum.
dm = ucc.minimize_diagonal()
print("\ndiagonal minimum:")
print("  x*    =", dm.x_star, " (phi + %.2e)" % (dm.x_star - ucc.PHI))
print("  r(x*) =", dm.value, " (1 + phi = golden ratio)")

# Both endpoints of the diagonal sit strictly above 1.9, which is the
# slack the downstream argument needs.
for x in (1e-4, 1 - 1e-6):
    print("  r(%g) = %.6f" % (x, 2 * ucc.f_ratio(x, x)))

# Now the full square on a coarse grid, rendered as a terrain map of
# the margin h(xy) - (x h(y) + y h(x))/(2 phi), one point at a time.
# Deeper valley, darker glyph.
n = 33
grid = [i / (n - 1) for i in range(n)]
margins = [[ucc.corollary_margin(x, y) for y in grid] for x in grid]
glyphs = " .:-=+*#"
print("\nmargin terrain (33 x 33, x down, y right):")
for row in margins[::2]:
    levels = (min(max(math.log10(max(m, 1e-9)) + 9, 0), 7.99) for m in row[::2])
    print("  " + "".join(glyphs[int(v)] for v in levels))

gc = ucc.corollary_grid_check(grid_points=201)
print("\nfine sweep: min margin", gc.min_margin, "at", gc.argmin)
assert gc.min_margin >= -1e-12
