"""A start for the Teichmuller iteration steered away from the plain one,
for the tests that show the start omega(gamma) is iterated from changes
nothing."""

from bcscan.witt import WittRing

_plain_start = WittRing._omega_start


def steered_start(offsets):
    """A stand-in for ``WittRing._omega_start`` that returns x + p * offsets,
    the offsets cycled to the ring dimension: x still reduces to gamma,
    the higher digits move."""

    def start(self):
        x = _plain_start(self).coords
        return self.from_coords(c + self.p * offsets[i % len(offsets)] for i, c in enumerate(x))

    return start
