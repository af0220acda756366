"""Semistability certificates for polynomial-valued matrices, block
decompositions of incidence matrices, and uniform sublevel-set integrals."""

__version__ = "0.1.0"
