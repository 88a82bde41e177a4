"""Exact intersection numbers of mixed psi and kappa classes.

The package computes rational intersection values on moduli spaces of
stable curves: mixed correlators, higher intersection volumes (open and
closed), and pairings against the top Hodge weightings, all in exact
arithmetic.  Every main route has an independently coded counterpart
wired into the verify suites.

The package re-exports nothing: callers import from the modules, for
instance ``wprec.correlator.CorrelatorEngine`` or ``wprec.constants.ALPHA``.
"""
