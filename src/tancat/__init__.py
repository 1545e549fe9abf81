"""tancat: exact symbolic checkers for tangent-categorical structures.

Modules:
  weil       the monoidal category of Weil N-rigs (objects, morphisms,
             transverse squares)
  wterm      the term language of the free tangent category, with parsing
             and semantic equality
  poly       exact multivariate polynomials and the differential combinator
  tangent    Weil prolongation of polynomial maps, structure naturals,
             tangent-axiom checkers
  bundle     lifts, trivial differential bundles, Euler vector fields,
             connections
  algebroid  involution algebroids, structure equations, section brackets
  nerve      the Weil nerve, functoriality/cartesianness checks, and the
             prolongation tangent structure
  cli        the `tancat` command

The sparse polynomial kernel is pure Python and lives in `tancat.poly`, with
packed exponent keys and int-or-Fraction coefficients private to that module.
"""

__version__ = "0.1.0"
