"""Local lambda-adic model: hand-checked expansions and structure."""

import numpy as np
import pytest

from bcscan import localfield
from bcscan.carlitz import additive_apply, bc_numbers, carlitz_action, exp_coeffs
from bcscan.fields import ConsistencyError, FieldError, fq_make
from bcscan.localfield import (
    MAX_LOCAL_SIZE,
    LocalModel,
    bc_local_sweep,
    check_local_size,
    dlog,
    local_model,
)
from bcscan.poly import lift_to_poly, monic_irreducibles, parse_poly
from bcscan.series import TruncSeries

F2 = fq_make(2, 1)
F3 = fq_make(3, 1)
F4 = fq_make(2, 2)
F5 = fq_make(5, 1)


def model(s, F):
    return local_model(parse_poly(s, F))


def unit_ratio(m, j):
    """(gamma^j . lambda) / lambda, a 1-unit times chi(gamma^j)."""
    return m.galois_rows()[j].shift_down(1)


def torsion_residual(m, T):
    """phi(f)(lambda) / lambda = sum(c_i(T) lambda^(q^i - 1)) for
    phi(f) = sum(c_i F^i), each c_i evaluated at T by Horner: the
    route the model's recursion phi(t) = T + F replaces."""
    out = TruncSeries.zero(m.rf, m.n_work)
    for i, c in enumerate(m.torsion.coeffs):
        out = out + T.eval_poly_coeffs(c.coeffs).shift_up(m.q**i - 1)
    return out


class TestQuadraticOverF2:
    """Everything about f = t^2+t+1 over F_2 is small enough to check
    coefficient by coefficient; residue field F_4 with tbar packed as 2."""

    m = model("t^2 + t + 1", F2)

    def test_shape(self):
        assert (self.m.N, self.m.n_work) == (4, 6)

    def test_t_expansion(self):
        # t(lambda) = tbar + l^3 + l^4 + l^5
        assert list(self.m.t_series.c) == [2, 0, 0, 1, 1, 1]

    def test_galois_images(self):
        rows = self.m.galois_rows()
        assert list(rows[0].c) == [0, 1, 0, 0, 0, 0]
        # tbar . lambda = tbar l + l^2 + l^4 + l^5
        assert list(rows[1].c) == [0, 2, 1, 0, 1, 1]
        assert list(rows[2].c) == [0, 3, 1, 0, 1, 1]

    def test_dlog_values(self):
        tb, tb2 = 2, 3
        assert list(dlog(unit_ratio(self.m, 1)).c) == [tb2, tb, tb, tb2]
        assert list(dlog(unit_ratio(self.m, 2)).c) == [tb, tb2, tb2, tb]

    def test_component_two_is_pi(self):
        # pi = l + l^2 + l^4 and pi' = 1, so the n=2 component must be
        # pi^1 pi' mod l^4
        assert list(self.m.dlog_lambda_component(2).c) == [0, 1, 1, 0]
        eig = self.m.eigen_uniformizer()
        assert list(eig.series.c) == [0, 1, 1, 0, 1, 0]
        assert list(eig.derivative.c) == [1, 0, 0, 0, 0]

    def test_component_one_polluted(self):
        # 1 + l^3, not a multiple of pi^0 pi' = 1: the n=1 congruence
        # genuinely fails at this depth, which is why extraction bans n=1
        assert list(self.m.dlog_lambda_component(1).c) == [1, 0, 0, 1]

    def test_bc_extraction(self):
        assert bc_local_sweep(self.m).values[2] == 1 == bc_numbers(self.m.rf).values[2]

    def test_sweep(self):
        sweep = bc_local_sweep(self.m)
        assert sweep.values == {2: 1}
        assert sweep.vanished == {1: False, 2: False}


def test_degree_one_expansions():
    # p = t: the torsion equation is linear, t(lambda) = -lambda^(q-1)
    # shifted by the root 0
    assert list(model("t", F2).t_series.c) == [0, 1, 0, 0]
    assert list(model("t", F3).t_series.c) == [0, 0, 2, 0, 0]
    assert list(model("t + 1", F3).t_series.c) == [2, 0, 2, 0, 0]


def test_degree_one_smallest_field_sweep_is_empty():
    sweep = bc_local_sweep(model("t", F2))
    assert sweep.values == {} and sweep.vanished == {}


PRIMES = [
    ("t^2 + t + 1", F2),
    ("t^3 + t + 1", F2),
    ("t^4 + t + 1", F2),
    ("t^2 + 1", F3),
    ("t^3 - t + 1", F3),
    ("t^2 + t + a", F4),
    ("t", F5),
    ("t^2 + 2", F5),
]


@pytest.mark.parametrize("s,F", PRIMES)
def test_t_series_depth_and_residual(s, F):
    """t(lambda) lies over tbar and differs from it only at depth q^d-1;
    plugging it back into the torsion equation gives exactly zero."""
    m = model(s, F)
    eps = m.t_series - TruncSeries.const(m.rf, m.n_work, m.rf.t_res)
    assert eps.valuation() >= m.N - 1
    assert torsion_residual(m, m.t_series).is_zero


def _whole_range_primes():
    for F in (F2, F3, F4, F5):
        d = 1
        while F.size**d <= 256:
            yield from monic_irreducibles(F, d)
            d += 1


def test_recursion_matches_horner_routes_over_the_whole_range():
    """At every prime with q^d <= 256, q <= 5: the Horner residual of the
    torsion equation vanishes at t(lambda), and the first and last Galois
    rows equal phi of the lift applied coefficient by coefficient."""
    count = 0
    for f in _whole_range_primes():
        m = LocalModel(f)
        R = m.rf
        assert torsion_residual(m, m.t_series).is_zero, f
        rows = m.galois_rows()
        if R.size > 2:
            assert rows[1] == m.galois_image(R.generator), f
            assert rows[-1] == m.galois_image(R.exp_of(R.size - 2)), f
        count += 1
    assert count == 296


def test_model_builds_without_horner(monkeypatch):
    def never(*_):
        raise AssertionError("eval_poly_coeffs called")

    monkeypatch.setattr(TruncSeries, "eval_poly_coeffs", never)
    for s, F in [("t^2 + t + 1", F2), ("t^3 - t + 1", F3), ("t^2 + t + a", F4)]:
        m = LocalModel(parse_poly(s, F))
        assert len(m.galois_rows()) == m.rf.size - 1
        bc = bc_numbers(m.rf)
        assert bc_local_sweep(m).values == {n: bc[n] for n in range(2, m.N - 1)}


def test_local_size_bound():
    check_local_size(MAX_LOCAL_SIZE)
    with pytest.raises(FieldError, match=f"up to q\\^d = {MAX_LOCAL_SIZE},"):
        check_local_size(MAX_LOCAL_SIZE + 1)


def test_local_model_refuses_above_bound_before_building(monkeypatch):
    def never(*_):
        raise AssertionError("the model started building")

    monkeypatch.setattr(localfield, "residue_field", never)
    with pytest.raises(FieldError, match="not 4096$"):
        local_model(parse_poly("t^12 + t^3 + 1", F2))


@pytest.mark.parametrize("s,F", PRIMES)
def test_galois_rows_match_faithful_route(s, F):
    m = model(s, F)
    R = m.rf
    rows = m.galois_rows()
    for j in range(R.size - 1):
        assert rows[j] == m.galois_image(R.exp_of(j))


@pytest.mark.parametrize("s,F", PRIMES)
def test_torsion_annihilates_every_row(s, F):
    """phi(f) kills each g.lambda to full working precision, the fact
    that makes the one-generator iteration legitimate."""
    m = model(s, F)
    coeff_series = [m.t_series.eval_poly_coeffs(c.coeffs) for c in m.torsion.coeffs]
    for j in range(min(m.rf.size - 1, 6)):
        x = m.galois_rows()[j]
        acc = TruncSeries.zero(m.rf, m.n_work)
        fx = x
        for i, cs in enumerate(coeff_series):
            acc = acc + cs * fx
            if i + 1 < len(coeff_series):
                fx = fx.frobenius_q()
        assert acc.is_zero


@pytest.mark.parametrize("s,F", PRIMES)
def test_scalar_collapse(s, F):
    """Mod lambda^(q^d) the coefficients c_i(t(lambda)) may be replaced
    by their residues c_i(tbar): the depth-(q^d-1) tail of t(lambda)
    gets pushed out by the lambda^(q^i) factors."""
    m = model(s, F)
    R = m.rf
    for g in [R.generator, R.exp_of(3 % (R.size - 1))]:
        op = carlitz_action(lift_to_poly(R, g))
        collapsed = TruncSeries.zero(R, m.n_work)
        for i, c in enumerate(op.coeffs):
            scalar = c.eval_at(R.t_res, R)
            collapsed = collapsed + TruncSeries.monomial(R, m.n_work, R.q**i).scale(scalar)
        assert m.galois_image(g).truncate(m.N) == collapsed.truncate(m.N)


@pytest.mark.parametrize("s,F", PRIMES)
def test_unit_ratio_residues(s, F):
    m = model(s, F)
    for j in range(m.rf.size - 1):
        assert unit_ratio(m, j)[0] == m.rf.exp_of(j)


@pytest.mark.parametrize("s,F", PRIMES)
def test_uniformizer_solves_exp_equation(s, F):
    m = model(s, F)
    e = exp_coeffs(m.rf)
    eig = m.eigen_uniformizer()
    lam = TruncSeries.monomial(m.rf, m.n_work, 1)
    assert additive_apply(e, eig.series) == lam


@pytest.mark.parametrize("s,F", PRIMES)
def test_uniformizer_eigenproperty(s, F):
    """ebar(chi(g) pi) = g.lambda mod lambda^(q^d): scaling pi by the
    residue character realizes the Galois action."""
    m = model(s, F)
    R = m.rf
    e = exp_coeffs(R)
    pi = m.eigen_uniformizer().series
    for j in range(R.size - 1):
        lhs = additive_apply(e, pi.scale(R.exp_of(j)))
        assert lhs.truncate(m.N) == m.galois_rows()[j].truncate(m.N)


@pytest.mark.parametrize("s,F", PRIMES)
def test_twisted_functional_equation(s, F):
    """ebar(t(l) x) + e_(d-1)^q x^(q^d) = t(l) ebar(x) + ebar(x)^q holds
    mod lambda^(q^d + 1); the defect term is forced by cutting the
    exponential at its last integral coefficient."""
    m = model(s, F)
    R = m.rf
    e = exp_coeffs(R)
    defect = R.pow(e[-1], R.q)
    rng = np.random.default_rng(7)
    for _ in range(3):
        c = np.zeros(m.n_work, dtype=np.int32)
        c[1:] = rng.integers(0, R.size, size=m.n_work - 1)
        x = TruncSeries.from_coeffs(R, m.n_work, list(c))
        xq = x
        for _ in range(m.d):
            xq = xq.frobenius_q()
        lhs = additive_apply(e, m.t_series * x) + xq.scale(defect)
        rhs = m.t_series * additive_apply(e, x) + additive_apply(e, x).frobenius_q()
        assert lhs.truncate(m.N + 1) == rhs.truncate(m.N + 1)


@pytest.mark.parametrize(
    "s,F",
    [("t^3 + t + 1", F2), ("t^4 + t + 1", F2), ("t^2 + 1", F3), ("t^2 + t + a", F4)],
)
def test_sweep_matches_power_series_route(s, F):
    m = model(s, F)
    bc = bc_numbers(m.rf)
    sweep = bc_local_sweep(m)
    assert set(sweep.values) == set(range(2, m.N - 1))
    for n, c in sweep.values.items():
        assert c == bc.values[n]
        assert sweep.vanished[n] == (c == 0)


def test_components_of_non_character_indices_vanish():
    # q=3: only even n carry a character power of the norm line; odd
    # components must die entirely mod lambda^(q^d)
    m = model("t^2 + 1", F3)
    for n in range(3, m.N - 1, 2):
        assert m.dlog_lambda_component(n).is_zero


def test_galois_image_rejects_non_units():
    m = model("t^2 + 1", F3)
    with pytest.raises(FieldError):
        m.galois_image(0)
    with pytest.raises(FieldError):
        m.galois_image(9)


def test_dlog_needs_unit():
    lam = TruncSeries.monomial(F3, 6, 1)
    with pytest.raises(FieldError):
        dlog(lam)


def test_dlog_product_rule():
    R = model("t^2 + t + a", F4).rf
    rng = np.random.default_rng(3)
    mk = lambda: TruncSeries.from_coeffs(
        R, 8, [int(rng.integers(1, R.size))] + list(rng.integers(0, R.size, size=7))
    )
    u, v = mk(), mk()
    assert dlog(u * v) == dlog(u) + dlog(v)


def test_local_model_is_cached():
    a = model("t^3 + t + 1", F2)
    b = model("t^3 + t + 1", F2)
    assert a is b


def test_batched_dlog_matches_scalar_dlog():
    for s, F in [("t^2 + t + 1", F2), ("t^2 + 1", F3)]:
        m = model(s, F)
        M = m.dlog_matrix()
        assert not M.flags.writeable
        for j in range(m.rf.size - 1):
            assert list(M[j]) == list(dlog(unit_ratio(m, j)).c)


def test_all_cubic_primes_over_f2_agree_with_bc():
    for f in monic_irreducibles(F2, 3):
        m = local_model(f)
        bc = bc_numbers(m.rf)
        for n, c in bc_local_sweep(m).values.items():
            assert c == bc.values[n]
