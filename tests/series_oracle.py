"""Newton's series inverse, the reference the package's one series
division, ``series.divide_rows``, is checked against."""

import numpy as np

from bcscan.series import mul_rows


def inverse_rows(F, A: np.ndarray) -> np.ndarray:
    """Row-wise inverse mod z^n by Newton iteration, y <- 2y - A y^2.  A
    step that doubles the precision to prec reads only A[:, :prec]."""
    if not A[:, 0].all():
        raise ZeroDivisionError("series has no inverse: zero constant term")
    y = np.array([[F.inv(int(v))] for v in A[:, 0]], dtype=np.int32)
    prec = 1
    while prec < A.shape[1]:
        prec = min(2 * prec, A.shape[1])
        y = np.pad(y, ((0, 0), (0, prec - y.shape[1])))
        ay2 = mul_rows(F, A[:, :prec], mul_rows(F, y, y))
        y = F.vsub(F.vadd(y, y), ay2)
    return y
