"""Exact tropical linear algebra with marginal-set sampling, key-agreement
protocols built on it, and canonical wire formats.

The package is organized bottom-up: semiring scalars, square matrices and
polynomials, commuting families, marginal words with residuation tables
and samplers, the protocols and the attack, and finally serialization plus
the command line in cli.py.  Import each name from the module that
defines it; the package itself re-exports nothing.
"""
