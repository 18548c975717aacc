"""Entropy of the union of two independent uniform draws.

Draw A and B independently and uniformly from a family F and look at
U = A | B.  Three facts get checked numerically here:

  * the chain rule writes H(U) as a sum over coordinates, and
    conditioning each bit of U on both source prefixes instead of its
    own can only lower that sum (the data-processing step),
  * H(U) >= p/(2 phi) (H(A) + H(B)) with p the smallest marginal
    absence probability (this holds for any family at all),
  * when F is nearly union closed, H(U) <= log2 |F| plus a defect
    term, which pinches the maximum frequency away from zero.

Run:  python3 demos/02_entropy_of_unions.py
"""

import math

import ucc

fam = ucc.SetFamily.from_masks(3, range(8))  # the full powerset of [3]
dist = ucc.union_distribution(fam)
print("union supports", dist.support_size, "masks over",
      fam.size ** 2, "ordered pairs")

h_union = dist.entropy_bits
print("H(U) =", h_union, "bits")
# Each bit of U is independently present with probability 3/4 here,
# so H(U) is exactly 3 h(1/4).
print("3 h(1/4) =", 3 * ucc.binary_entropy(0.25))

chain = ucc.chain_rule_check(fam)
print("\nchain rule: H(U) = sum_i H(U_i | U below i)")
print("data processing: H(U) >= sum_i H(U_i | A below i, B below i)")
print("  H(U)", fam.union_entropy, "rhs", chain.rhs_bits,
      "margin", chain.margin_bits)

lower = ucc.check_lower_bound(fam)
p = 1 - ucc.element_frequencies(fam).max_freq
print("lower bound: H(U) >= p/(2 phi) (H(A) + H(B))")
print("  p =", p, " margin", lower.margin_bits)

upper = ucc.check_upper_bound(fam)
print("upper bound (needs closure defect < 1/2):")
print("  applicable", upper.applicable, " margin", upper.margin_bits)

# The same machinery on a family that is far from union closed: the
# upper bound steps aside instead of failing.
loose = ucc.parse_family("n=2\n10\n01\n")  # {1}, {2}
print("\nclosure fraction of {{1}, {2}}:", 1 - loose.closure_deficit)
upper = ucc.check_upper_bound(loose)
print("upper bound applicable:", upper.applicable,
      "(defect", loose.closure_deficit, "reaches 1/2)")

# A defect below 1/2 can still drive the certified threshold negative,
# in which case the theorem holds vacuously.
vacuous = ucc.parse_family("n=3\n000\n100\n010\n")  # {}, {1}, {2}
rep = ucc.check_theorem(vacuous)
print("vacuous case: applicable", rep.applicable,
      "satisfied", rep.satisfied)
print("  bound psi - delta =", ucc.PSI - rep.delta,
      " max freq =", float(vacuous.frequency_profile.max_freq))
assert rep.satisfied

# Sanity: entropy is measured in bits, so the powerset union entropy
# can never exceed the universe size.
assert h_union <= 3 + 1e-12
assert math.isclose(h_union, 3 * ucc.binary_entropy(0.25), rel_tol=1e-12)
