"""Warped-product curvature closed forms, the product-action identity,
its constrained first variation, and the associated geometric flows,
cross-checked against a generic finite-difference pipeline on flat
periodic tori."""

__version__ = "0.1.0"
