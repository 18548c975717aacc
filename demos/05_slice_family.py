"""A nearly union-closed family whose max frequency approaches psi.

Take all k-subsets of [n] together with all sets of size at least m.
Two random k-sets overlap in about k^2/n elements, so their union has
around 2k - k^2/n; with k close to psi n and m close to (2 psi -
psi^2) n that union almost always clears m and lands back in the
family.  Literal closure fails (a lucky overlap stays below m), but
the defect, computed exactly, vanishes as n grows while every element's
frequency slides down toward psi.  That squeeze is why no argument driven by the
entropy inequalities in this library can certify a constant above psi.

Run:  python3 demos/05_slice_family.py
"""

import ucc

# Small enough to hold in memory and check literally.
spec = ucc.ExampleSpec(n=12, k=4, m=8)
fam = ucc.slice_example(spec)
print("n=12 slice family:", fam.size, "sets")
print("closure deficit:", float(fam.closure_deficit))
print("ordered closure fraction:", float(1 - fam.closure_deficit))
prof = ucc.element_frequencies(fam)
print("max frequency", prof.max_freq, "=", float(prof.max_freq))

# The same family through the theorem checker.
rep = ucc.check_theorem(fam)
print("theorem satisfied:", rep.satisfied,
      " margin above psi:", float(prof.max_freq) - ucc.PSI)

# At n = 1000 the family has ~10^299 members, so nothing is materialized:
# sizes, frequencies and the closure deficit come from binomial
# arithmetic.  Only two k-sets overlapping too little to reach m can
# miss the family, so the deficit is an exact sum over overlaps.
spec = ucc.ExampleSpec(n=1000)
print("\nn=1000 defaults: k =", spec.k, " m =", spec.m)

stats = ucc.slice_stats(spec)
print("log2 |k-slice|    =", stats.log2_f1)
print("log2 |upper part| =", stats.log2_f2)
# |F2| / |F1| itself underflows a float by n = 80,000; its log does not
print("log2 size ratio   =", stats.log2_f2 - stats.log2_f1)
print("closure deficit   =", float(stats.closure_deficit), "(exact)")
print("log2(1/deficit)   =", stats.log2_inv_closure_deficit)
print("max frequency     =", float(stats.max_freq_exact))
print("  exactly", stats.max_freq_exact)

# The squeeze: the deficit and the gap above psi shrink together, while
# the theorem's bound psi - delta stays below the frequency.
print("\nn      closure deficit  max freq        gap above psi  psi - delta")
for n in (1000, 4000, 16000):
    st = ucc.slice_stats(ucc.ExampleSpec(n=n))
    print("%-6d %-16.3e %.12f  %-14.2e %.12f" % (
        n, float(st.closure_deficit), st.max_freq_exact, float(st.max_freq_exact) - ucc.PSI,
        ucc.PSI - st.delta))
print("psi =", ucc.PSI)
