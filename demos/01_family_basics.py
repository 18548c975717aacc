"""Tour of set families: building, measuring, closing.

Run:  python3 demos/01_family_basics.py
"""

from fractions import Fraction

import ucc

# A family is a sorted tuple of bitmasks over a universe of n elements,
# parsed here from the .uc text format: a header n=<universe size>, then
# one row per set whose j-th character is 1 when element j is in it.
# Element j is bit j-1, so the row 1010 is {1,3}, the mask 0b0101.
fam = ucc.parse_family("n=4\n1000\n1100\n1010\n1110\n")
print("family:")
print(ucc.format_family(fam))

# closure_deficit is eps, the share of ordered pairs (A, B) whose union
# A | B leaves the family; 0 means union closed, anything more measures
# the defect.
print("closure deficit:", fam.closure_deficit)
print("union closed?", fam.closure_deficit == 0)

# Drop a union and watch the deficit rise.
broken = ucc.parse_family("n=4\n1000\n0100\n1010\n")  # {1}, {2}, {1,3}
print("\nbroken family closure deficit:", broken.closure_deficit)
print("ordered closure fraction 1 - eps:", 1 - broken.closure_deficit)
print("unordered variant:", ucc.closure_fraction_unordered(broken))

# union_closure completes any family to the smallest union-closed one
# containing it.
closed = ucc.union_closure(broken)
print("closure has", closed.size, "sets:")
print(ucc.format_family(closed))

# Element frequencies: how often each ground element appears.  The profile
# keeps each element's member count; its frequency is that count over |F|.
# The conjecture behind this library says some element reaches 1/2 in any
# finite union-closed family; the theorem we check certifies the
# weaker constant psi everywhere.
prof = ucc.element_frequencies(closed)
print("frequencies:", [str(Fraction(c, closed.size)) for c in prof.counts])
print("max:", prof.max_freq, "at element", prof.argmax + 1)
assert prof.max_freq >= Fraction(1, 2)

rep = ucc.check_theorem(closed)
print("\ntheorem threshold psi =", ucc.PSI)
print("applicable:", rep.applicable, "satisfied:", rep.satisfied)
