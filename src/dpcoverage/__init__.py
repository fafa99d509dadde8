"""Differentially private broadband-coverage estimates.

Privatizes per-zone device counts with seeded Laplace noise, tracks the
privacy budget spent with exact decimal arithmetic, derives a coverage
estimate per zone, and attaches simulated error ranges so downstream users
know how much to trust each number. Each name is imported from its module,
such as `dpcoverage.release`; the package itself defines only `__version__`.
"""

__version__ = "0.1.0"
