"""Computational character theory for finite permutation groups.

Decides monomiality and the QSI property (some multiple of a character
induced from a character with solvable U/ker) for concrete groups, and
provides the order-theoretic elimination toolkit for groups of Lie type
(Zsigmondy primes, order formulas, Singer and torus element orders,
Steinberg degrees).
"""

__version__ = "0.1.0"
