"""Local lambda-adic model: hand-checked expansions and structure."""

import numpy as np
import pytest

from bcscan import fields, localfield
from bcscan.carlitz import additive_apply, bc_numbers, exp_coeffs
from bcscan.fields import ConsistencyError, FieldError, fq_make
from bcscan.localfield import (
    MAX_LOCAL_SIZE,
    bc_local_sweep,
    check_local_size,
    local_model,
)
from bcscan.poly import lift_to_poly, monic_irreducibles, parse_poly
from bcscan.series import TruncSeries, derivative_rows, mul_rows
from carlitz_oracle import (
    eval_at,
    carlitz_action,
    cyclotomic_poly,
    dlog,
    eval_poly_coeffs,
    galois_image,
    torsion_residual,
    uniformizer_fixed_point,
)
from series_oracle import inverse_rows

F2 = fq_make(2, 1)
F3 = fq_make(3, 1)
F4 = fq_make(2, 2)
F5 = fq_make(5, 1)


def model(s, F):
    return local_model(parse_poly(s, F))


def component_by_n(m, n):
    """-sum over j of gamma^(-n j) dlog(gamma^j . lambda / lambda), one n
    at a time: the per-index route the whole-table transform replaces."""
    R = m.rf
    j = np.arange(R.order, dtype=np.int64)
    w = R._npexp[(-n * j) % R.order]
    return R.vneg(R.vsum(R.vmul(w[:, None], m.dlog_matrix()), axis=0))


def unit_ratios(m):
    """(gamma^j . lambda) / lambda, a 1-unit times chi(gamma^j), for every j."""
    return [TruncSeries(m.rf, m.n_work, row).shift_down(1) for row in m.galois_rows()]


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
        assert rows.shape == (3, 6)
        assert list(rows[0]) == [0, 1, 0, 0, 0, 0]
        # tbar . lambda = tbar l + l^2 + l^4 + l^5
        assert list(rows[1]) == [0, 2, 1, 0, 1, 1]
        assert list(rows[2]) == [0, 3, 1, 0, 1, 1]

    def test_dlog_values(self):
        tb, tb2 = 2, 3
        ratios = unit_ratios(self.m)
        assert list(dlog(ratios[1]).c) == [tb2, tb, tb, tb2]
        assert list(dlog(ratios[2]).c) == [tb, tb2, tb2, tb]

    def test_component_two_is_pi(self):
        # pi = l + l^2 + l^4 and pi' = 1, so the n=2 component must be
        # pi^1 pi' mod l^4
        assert list(self.m.dlog_components()[1]) == [0, 1, 1, 0]
        pi = self.m.eigen_uniformizer()
        assert list(pi.c) == [0, 1, 1, 0, 1, 0]
        assert list(pi.derivative().c) == [1, 0, 0, 0, 0]

    def test_component_one_polluted(self):
        # 1 + l^3, not a multiple of pi^0 pi' = 1: the n=1 congruence
        # genuinely fails at this depth, which is why extraction bans n=1
        assert list(self.m.dlog_components()[0]) == [1, 0, 0, 1]

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


def _whole_range_primes(bases=(F2, F3, F4, F5)):
    for F in bases:
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
        m = local_model(f)
        R = m.rf
        assert torsion_residual(m, m.t_series).is_zero, f
        rows = m.galois_rows()
        if R.size > 2:
            assert np.array_equal(rows[1], galois_image(m, R.generator).c), f
            assert np.array_equal(rows[-1], galois_image(m, R.exp_of(R.size - 2)).c), f
        count += 1
    assert count == 296


def dense_dlog_matrix(m):
    """Each ratio's derivative times its Newton inverse: the dense route
    the sparse division replaces."""
    R = m.rf
    U = m.galois_rows()[:, 1:]
    return mul_rows(R, derivative_rows(R, U), inverse_rows(R, U[:, : m.N]))


@pytest.mark.parametrize("F,count", [(F2, 71), (F3, 80), (F4, 90), (F5, 55)], ids=["q2", "q3", "q4", "q5"])
def test_dlog_matrix_equals_the_dense_route_over_the_whole_range(F, count):
    seen = 0
    for f in _whole_range_primes([F]):
        m = local_model(f)
        M = m.dlog_matrix()
        assert M.shape == (m.N - 1, m.N) and not M.flags.writeable
        assert np.array_equal(M, dense_dlog_matrix(m)), f
        seen += 1
    assert seen == count


def test_the_cached_model_keeps_no_whole_table():
    m = model("t^5 + t^2 + 1", F2)
    bc_local_sweep(m)
    for name, value in vars(m).items():
        assert not (isinstance(value, (list, np.ndarray)) and len(value) >= m.N - 1), name


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
    assert rows.shape == (R.size - 1, m.n_work)
    for j in range(R.size - 1):
        assert np.array_equal(rows[j], galois_image(m, R.exp_of(j)).c)


@pytest.mark.parametrize("s,F", PRIMES)
def test_torsion_annihilates_every_row(s, F):
    """phi(f) kills each g.lambda to full working precision, the fact
    that makes the one-generator iteration legitimate."""
    m = model(s, F)
    torsion = cyclotomic_poly(m.prime)
    coeff_series = [eval_poly_coeffs(m.t_series, c.coeffs) for c in torsion.coeffs]
    rows = m.galois_rows()
    for j in range(min(m.rf.size - 1, 6)):
        x = TruncSeries(m.rf, m.n_work, rows[j])
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
            scalar = eval_at(c, R.t_res, R)
            collapsed = collapsed + TruncSeries.monomial(R, m.n_work, R.q**i).scale(scalar)
        assert galois_image(m, g).truncate(m.N) == collapsed.truncate(m.N)


@pytest.mark.parametrize("s,F", PRIMES)
def test_unit_ratio_residues(s, F):
    m = model(s, F)
    for j, ratio in enumerate(unit_ratios(m)):
        assert ratio[0] == m.rf.exp_of(j)


@pytest.mark.parametrize("s,F", PRIMES)
def test_uniformizer_solves_exp_equation(s, F):
    m = model(s, F)
    e = exp_coeffs(m.rf)
    pi = m.eigen_uniformizer()
    lam = TruncSeries.monomial(m.rf, m.n_work, 1)
    assert additive_apply(e, pi) == lam


F8, F16 = fq_make(2, 3), fq_make(2, 4)
F9A, F9B = fq_make(3, 2, (1, 0, 1)), fq_make(3, 2, (2, 1, 1))


def _check_closed_form_uniformizer(primes):
    """The closed-form pi equals the fixed-point iteration's; it is
    nonzero only at the lambda^(q^k), with l_0 = 1, so pi' = 1.  Returns
    the number of primes checked."""
    seen = 0
    for f in primes:
        m = local_model(f)
        pi = m.eigen_uniformizer()
        assert pi == uniformizer_fixed_point(m), f
        assert set(np.flatnonzero(pi.c)) <= {m.q**k for k in range(m.d + 1)}, f
        assert pi[1] == 1 and pi.derivative() == TruncSeries.one(m.rf, m.n_work - 1), f
        seen += 1
    return seen


@pytest.mark.parametrize(
    "F,count",
    [(F2, 71), (F3, 80), (F4, 90), (F5, 55), (fq_make(7), 28), (F8, 36), (F9A, 45), (F9B, 45), (F16, 136)],
    ids=["q2", "q3", "q4", "q5", "q7", "q8", "q9-x2+1", "q9-x2+x+2", "q16"],
)
def test_closed_form_uniformizer_equals_the_fixed_point(F, count):
    assert _check_closed_form_uniformizer(_whole_range_primes([F])) == count


@pytest.mark.parametrize("d,count", [(10, 3), (11, 2)])
def test_closed_form_uniformizer_equals_the_fixed_point_at_the_local_cap(d, count):
    primes = monic_irreducibles(F2, d)
    rng = np.random.default_rng(d)
    picks = rng.choice(len(primes), size=count, replace=False)
    assert _check_closed_form_uniformizer(primes[int(i)] for i in picks) == count


def test_the_uniformizer_check_fires_when_ebar_misses_lambda(monkeypatch):
    m = model("t^3 + t + 1", F2)
    zq = TruncSeries.monomial(m.rf, m.n_work, m.q)
    monkeypatch.setattr(localfield, "additive_apply", lambda e, x: TruncSeries.monomial(x.field, x.n, 1) + zq)
    with pytest.raises(ConsistencyError, match=r"ebar\(pi\) is not lambda"):
        m.eigen_uniformizer()


@pytest.mark.parametrize("s,F", PRIMES)
def test_uniformizer_eigenproperty(s, F):
    """ebar(chi(g) pi) = g.lambda mod lambda^(q^d): scaling pi by the
    residue character realizes the Galois action."""
    m = model(s, F)
    R = m.rf
    e = exp_coeffs(R)
    pi = m.eigen_uniformizer()
    rows = m.galois_rows()
    for j in range(R.size - 1):
        lhs = additive_apply(e, pi.scale(R.exp_of(j)))
        assert np.array_equal(lhs.c[: m.N], rows[j][: m.N])


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
    comps = m.dlog_components()
    for n in range(3, m.N - 1, 2):
        assert not comps[n - 1].any()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_components_match_the_per_index_sums(q):
    """The whole-table transform against the per-n sum at every prime
    with q^d <= 64 (the per-n route over the whole q^d <= 256 range
    takes about 40 s)."""
    F = fq_make(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
    d = 1
    while q**d <= 64:
        for f in monic_irreducibles(F, d):
            m = local_model(f)
            comps = m.dlog_components()
            assert comps.shape == (m.N - 2, m.N) and not comps.flags.writeable
            for n in range(1, m.N - 1):
                assert list(comps[n - 1]) == list(component_by_n(m, n)), (f, n)
        d += 1


@pytest.mark.parametrize("s,F", [("t^5 + t^2 + 1", F2), ("t^3 - t + 1", F3), ("t^2 + t + a", F4)])
def test_components_do_not_depend_on_the_chunk_size(s, F, monkeypatch):
    tables = []
    for cells, block in ((1, 1), (fields.CHUNK_CELLS, fields.MATMUL_CELLS), (1 << 30, 1 << 30)):
        monkeypatch.setattr(fields, "CHUNK_CELLS", cells)
        monkeypatch.setattr(fields, "MATMUL_CELLS", block)
        tables.append(local_model(parse_poly(s, F)).dlog_components())
    assert all(np.array_equal(t, tables[0]) for t in tables[1:])


def test_sweep_names_the_first_non_proportional_component(monkeypatch):
    m = local_model(parse_poly("t^3 + t + 1", F2))
    comps = m.dlog_components().copy()
    comps[2, 5] ^= 1  # n = 3, off the diagonal that carries the residue
    monkeypatch.setattr(m, "dlog_components", lambda: comps)
    with pytest.raises(ConsistencyError, match=r"at n=3 is not proportional"):
        bc_local_sweep(m)


def test_galois_image_rejects_non_units():
    m = model("t^2 + 1", F3)
    with pytest.raises(FieldError):
        galois_image(m, 0)
    with pytest.raises(FieldError):
        galois_image(m, 9)


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


def test_batched_dlog_matches_scalar_dlog():
    for s, F in [("t^2 + t + 1", F2), ("t^2 + 1", F3)]:
        m = model(s, F)
        M = m.dlog_matrix()
        assert not M.flags.writeable
        for j, ratio in enumerate(unit_ratios(m)):
            assert list(M[j]) == list(dlog(ratio).c)


def test_all_cubic_primes_over_f2_agree_with_bc():
    for f in monic_irreducibles(F2, 3):
        m = local_model(f)
        bc = bc_numbers(m.rf)
        for n, c in bc_local_sweep(m).values.items():
            assert c == bc.values[n]
