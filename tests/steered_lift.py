"""A Witt lift steered away from the plain one, for the tests that show the
lift the Teichmuller iteration starts from changes nothing."""


def steered_lift(offsets):
    """A stand-in for ``WittRing.lift`` that adds p * offsets[i] to
    coordinate i, the offsets cycled to the ring dimension: digit 0 stays
    exact, the higher digits move."""

    def lift(self, v):
        coords = self.theta_coords(v)
        return self.from_coords(c + self.p * offsets[i % len(offsets)] for i, c in enumerate(coords))

    return lift
