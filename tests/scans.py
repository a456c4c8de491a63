"""Scans with their one-pass reports drawn into a tuple, for tests that
read them more than once."""

import dataclasses

from bcscan.herbrand import scan


def scanned(base, max_degree, options=None):
    result = scan(base, max_degree, options)
    return dataclasses.replace(result, reports=tuple(result.reports))
