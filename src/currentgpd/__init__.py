"""Finite-dimensional groupoids, mapping-space grids, and verification suites.

The package is used through its submodules (``currentgpd.groupoids``,
``currentgpd.gridmaps``, ``currentgpd.suites``, ...); this module re-exports
nothing.
"""

__version__ = "0.1.0"
