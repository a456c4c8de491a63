"""Scans with their one-pass reports drawn into a tuple, for tests that
read them more than once."""

import dataclasses

from bcscan.herbrand import scan


def scanned(base, max_degree, options=None):
    result = scan(base, max_degree, options)
    return dataclasses.replace(result, reports=tuple(result.reports))


def strip_timings(result):
    """The result with its reports drawn into a tuple, timings removed."""
    reports = tuple(dataclasses.replace(r, timings=None) for r in result.reports)
    return dataclasses.replace(result, reports=reports)
