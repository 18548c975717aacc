"""Analytic side of the toolkit: entropy scalars (:mod:`.scalars`), interval
enclosures (:mod:`.intervals`), and the branch-and-bound certificate for the
minimum of f (:mod:`.certify`).

Importing this package loads none of them: import names from the submodule
that defines them, or read them from :mod:`ucc`.
"""
