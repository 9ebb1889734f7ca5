"""Reference oracle for the hom rank between two induced atoms.

This is the double-coset loop motivelab ran before the rank became one
contraction over a transversal of G/H2: it walks G, marks each double coset
H1 g H2 once, and adds the class number of its stabilizer H1 n gH2g^-1,
counted as commuting pairs over the stabilizer's order.
"""

import numpy as np


def double_coset_pair_rank(G, H1, H2):
    cay = G.cayley
    h1, h2 = np.array(H1.members), np.array(H2.members)
    in_h2 = np.zeros(G.order, dtype=bool)
    in_h2[h2] = True
    seen = np.zeros(G.order, dtype=bool)
    total = 0
    for g in range(G.order):
        if seen[g]:
            continue
        seen[cay[np.ix_(cay[h1, g], h2)]] = True                 # the double coset H1 g H2
        K = h1[in_h2[cay[cay[G.inverses[g], h1], g]]]            # g^-1 h g in H2
        T = cay[np.ix_(K, K)]
        total += int((T == T.T).sum()) // len(K)
    return total
