"""Reference oracle for the first orthogonality of character rows.

This is the exact check motivelab ran before it kept the integer
multiplicity array: k(k+1)/2 inner products sum_c |c| chi_i(c) conj(chi_j(c)),
each a sum of k `Cyclotomic` products reduced mod Phi_e.  It reads only the
`Cyclotomic` rows of a table, never the array.
"""

from fractions import Fraction

from motivelab.cyclotomic import Cyclotomic


def cyclotomic_orthogonality(table):
    """The first pair (i, j), i <= j, whose inner product is not
    |G| delta_ij, or None when the rows are orthogonal."""
    sizes = table.class_sizes()
    n = table.order
    k = table.num_irreducibles
    rows = table.irreducibles
    for i in range(k):
        for j in range(i, k):
            acc = Cyclotomic.zero()
            for c in range(k):
                acc = acc + sizes[c] * rows[i][c] * rows[j][c].conjugate()
            if acc != Cyclotomic.from_rational(Fraction(n) if i == j else Fraction(0)):
                return i, j
    return None
