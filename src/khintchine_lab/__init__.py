"""Desk-scale checks for metric approximation on self-similar fractals.

The package walks both sides of the dictionary between approximation by
rationals and excursions of diagonal flows on the space of unimodular
lattices: sample a fractal, push it through the flow, time the excursions,
and compare against the series criteria on the function side.
"""

__version__ = "0.1.0"
