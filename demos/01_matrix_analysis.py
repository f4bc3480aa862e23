#!/usr/bin/env python3
"""Walk through the matrix analysis layer on three dilation matrices.

The interesting case is [[0, 1], [3, 1]]: a perfectly good dilation matrix
(both eigenvalue moduli above one) whose inverse nevertheless EXPANDS some
vectors, because the operator norm of the inverse is above one.  Exact
inverse powers M^-n = adj(M)^n / det(M)^n, kept as integer pairs, show how
contraction only sets in at the second power.
"""

from fractions import Fraction

from refinable import DilationMatrix, operator_norm

MATRICES = {
    "doubling  [[2,0],[0,2]]": [[2, 0], [0, 2]],
    "quincunx  [[1,1],[1,-1]]": [[1, 1], [1, -1]],
    "skewed    [[0,1],[3,1]]": [[0, 1], [3, 1]],
}


def describe(label: str, rows) -> None:
    matrix = DilationMatrix.from_rows(rows)
    print(f"== {label}")
    print(f"   determinant {matrix.determinant}, so m = {matrix.m}")
    eigs = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" if z.imag else f"{z.real:+.6f}"
                     for z in matrix.spectrum.eigenvalues)
    print(f"   eigenvalues: {eigs}")
    print(f"   ||M||   = {matrix.norm:.8f}")
    print(f"   ||M^-1|| = {matrix.inverse_norm:.8f}"
          + ("   <-- above one!" if matrix.inverse_norm > 1 else ""))
    verdict = matrix.dilation_check
    print(f"   dilation matrix: {'yes' if verdict else 'no, ' + verdict.reason}")
    if matrix.spectrum.all_real:
        blocks = ", ".join(f"eigenvalue {lam:g} in a {size}x{size} block"
                           for lam, size in matrix.jordan_structure.blocks)
        print(f"   real Jordan structure: {blocks}")
    print()


def main() -> None:
    for label, rows in MATRICES.items():
        describe(label, rows)

    print("Exact inverse powers of the skewed matrix:")
    skewed = DilationMatrix.from_rows([[0, 1], [3, 1]])
    for n in range(1, 7):
        adj, det = skewed.inverse_power(n)
        sample = Fraction(adj.rows[0][0], det)
        print(f"   ||M^-{n}|| = {operator_norm(adj, det):.8f}"
              f"   (entry [0,0] is exactly {sample})")
    print("\nThe norms pass below one at n = 2: the inverse contracts only")
    print("asymptotically, which is why the general support bound iterates")
    print("the recursion in blocks of k steps.")


if __name__ == "__main__":
    main()
