"""Exact toolkit for a -1 orthogonal polynomial family.

Monic polynomials from a three-term recurrence with rational arithmetic
throughout, the first-order reflection-differential operator they
diagonalize, Dunkl/Christoffel/Geronimus structure transforms, the
anticommutator algebra of the underlying Leonard-style operator pair,
numeric eigenfunctions off the polynomial spectrum, and a trigonometric
well quantum-mechanics picture with a square-root operator.

Each layer is a submodule (`polys`, `family`, `operators`, `transforms`,
`awalgebra`, `eigensolver`, `susyqm`, `verify`, `cli`); import the one
you need, e.g. ``from littlejacobi.family import ParamPair``.
"""

__version__ = "0.1.0"
