"""L-values over truncated Witt vectors: worked example, identities,
scope rules, valuations, precision behaviour."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from bcscan import fields, lseries
from bcscan.fields import ConsistencyError, FieldError, ResidueField, fq_make
from bcscan.poly import monic_irreducibles, parse_poly, residue_field
from bcscan.lseries import (
    CharacterContext,
    character_context,
    l_report,
    l_value_at_one,
    mod_p_screen,
    monic_power_sums,
    pic_eigenspace_length,
)
from bcscan.witt import PrecisionError, WittElem, WittRing
from l_valuation_oracle import units_mod_p
from steered_lift import steered_start


def ctx_for(q_params, prime_str, k=12):
    F = fq_make(*q_params)
    return character_context(residue_field(parse_poly(prime_str, F)), k)


def fresh_field(q_params, prime_str):
    """A searched field of its own, so that no Teichmuller table in its
    ``lifts`` comes from another test."""
    f = parse_poly(prime_str, fq_make(*q_params))
    return ResidueField(f.field, f.coeffs)


def test_worked_example_q2_quadratic_n1():
    # S_1(T) = 1 - T, Q_1(T) = 1, L_1 = 1, valuation 0
    ctx = ctx_for((2, 1), "t^2 + t + 1", k=4)
    W = ctx.W
    rep = l_report(ctx, 1)
    assert rep.in_scope
    assert rep.s_coeffs == (W.one(), -W.one())
    assert rep.s_at_one.is_zero
    assert rep.q_coeffs == (W.one(),)
    assert rep.l_value == W.one()
    assert rep.valuation == 0
    assert l_value_at_one(ctx, 1) == W.one()


def test_degree_sums_match_bruteforce():
    # brute-force the character sums straight from Teichmuller lifts
    ctx = ctx_for((3, 1), "t^2 + 1", k=8)
    R, W = ctx.rf, ctx.W
    for n in range(1, 8):
        for j in range(2):
            acc = W.zero()
            for v in range(3**j, 2 * 3**j):  # packed monic reps of degree j
                acc = acc + W.teichmuller(v) ** ((-n) % ctx.order)
            assert acc == ctx.char_degree_sum(n, j), (n, j)


def test_closed_weighted_sum_matches_bruteforce():
    ctx = ctx_for((3, 1), "t^2 + 1", k=8)
    W = ctx.W
    for n in [2, 4, 6]:
        acc = W.zero()
        for j in range(2):
            for v in range(3**j, 2 * 3**j):
                x = W.teichmuller(v) ** ((-n) % ctx.order)
                acc = acc + W.from_coords(j * c for c in x.coords)
        assert acc == ctx.closed_weighted_sum(n)
        assert l_value_at_one(ctx, n) == -acc


def test_unit_group_character_sum_vanishes():
    # full orthogonality: sum over all units of omega(u)^-n is exactly 0
    # in W_k whenever (Q-1) does not divide n
    ctx = ctx_for((2, 1), "t^3 + t + 1", k=10)
    W = ctx.W
    for n in range(1, 7):
        total = W.zero()
        for u in range(1, 8):
            total = total + W.teichmuller(u) ** ((-n) % 7)
        assert total.is_zero


def test_s_at_one_vanishes_exactly_in_scope():
    for params, prime in [((2, 1), "t^4 + t + 1"), ((3, 1), "t^3 - t + 1"), ((2, 2), "t^3 + a")]:
        ctx = ctx_for(params, prime)
        for n in range(1, ctx.order):
            rep = l_report(ctx, n)
            if rep.in_scope:
                assert rep.s_at_one.is_zero
            else:
                assert rep.q_coeffs is None and rep.l_value is None


def test_scope_rule():
    ctx = ctx_for((3, 1), "t^3 - t + 1")
    assert [n for n in range(1, 26) if ctx.in_scope(n)] == list(range(2, 26, 2))
    assert not ctx.in_scope(0)
    assert not ctx.in_scope(26)
    with pytest.raises(FieldError):
        l_value_at_one(ctx, 3)  # odd n out of scope for q = 3


def test_table_prime_valuations_are_zero():
    # irregular indices from the scan tables all carry pic length 0
    cases = [
        ((2, 1), "t^4 + t + 1", 9),
        ((3, 1), "t^3 - t + 1", 10),
        ((3, 1), "t^4 - t^2 - 1", 32),
        ((2, 2), "t^3 + a", 33),
        ((2, 2), "t^3 + a^2*t^2 + a*t + a^2", 33),
    ]
    for params, prime, n in cases:
        F = fq_make(*params)
        rf = residue_field(parse_poly(prime, F))
        assert pic_eigenspace_length(rf, n) == 0


def test_valuations_independent_of_precision():
    ctx5 = ctx_for((2, 1), "t^4 + t + 1", k=5)
    ctx12 = ctx_for((2, 1), "t^4 + t + 1", k=12)
    for n in range(1, 15):
        v5 = ctx5.W.valuation(l_value_at_one(ctx5, n))
        v12 = ctx12.W.valuation(l_value_at_one(ctx12, n))
        assert v5 == v12


def test_l_value_independent_of_teichmuller_lift_offsets(monkeypatch):
    # two fields, as one field's contexts share its table
    a = CharacterContext(fresh_field((2, 1), "t^4 + t + 1"), 12)
    monkeypatch.setattr(WittRing, "_omega_start", steered_start((1, 0, 2, 1)))
    b = CharacterContext(fresh_field((2, 1), "t^4 + t + 1"), 12)
    for n in [3, 9, 12]:
        assert l_value_at_one(a, n).coords == l_value_at_one(b, n).coords


def test_teich_table_is_multiplicative():
    ctx = ctx_for((3, 1), "t^2 + 1", k=6)
    W, R = ctx.W, ctx.rf
    for j in range(ctx.order):
        row = W.from_coords(int(v) for v in ctx.teich[j])
        assert row == W.teichmuller(R.exp_of(j))


def test_report_fields_out_of_scope():
    ctx = ctx_for((3, 1), "t^2 + 1")
    rep = l_report(ctx, 3)  # odd: out of scope
    assert not rep.in_scope
    assert rep.valuation is None
    assert len(rep.s_coeffs) == 2
    # diagnostics still meaningful: S(1) computed
    assert isinstance(ctx.W.valuation(rep.s_at_one), int)


def test_saturating_valuation_retries_until_resolved(monkeypatch):
    # a true valuation of 5, which the table at k caps at k: it
    # saturates while k <= 5, so k doubles from 1 until it passes 5
    rf = residue_field(parse_poly("t^4 + t + 1", fq_make(2, 1)))
    calls = []

    def capped(rf, k):
        calls.append(k)
        return np.full(rf.order, min(5, k), dtype=np.int8)

    monkeypatch.setattr(lseries, "_valuation_table", capped)
    assert pic_eigenspace_length(rf, 9, k=1) == 5
    assert calls == [1, 2, 4, 8]


def test_saturating_valuation_hits_cap(monkeypatch):
    rf = residue_field(parse_poly("t^4 + t + 1", fq_make(2, 1)))
    calls = []

    def saturated(rf, k):
        calls.append(k)
        return np.full(rf.order, k, dtype=np.int8)

    monkeypatch.setattr(lseries, "_valuation_table", saturated)
    with pytest.raises(PrecisionError, match="^valuation still saturated at the precision cap 96$"):
        pic_eigenspace_length(rf, 9, k=1)
    assert calls == [1, 2, 4, 8, 16, 32, 64, 96]


def test_pic_length_resolves_from_k1():
    F2 = fq_make(2, 1)
    rf = residue_field(parse_poly("t^4 + t + 1", F2))
    assert pic_eigenspace_length(rf, 9, k=1) == 0


def test_big_n_small_n_periodicity_guard():
    ctx = ctx_for((2, 1), "t^3 + t + 1")
    with pytest.raises(FieldError):
        l_report(ctx, 7)  # n = Q-1 out of range
    with pytest.raises(FieldError):
        l_report(ctx, 0)


# (p, r, largest degree) for q = 2, 3, 4, 5: every prime with q^d <= 256
SMALL_PRIMES = [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3)]


@pytest.mark.parametrize("p,r,max_d", SMALL_PRIMES)
def test_valuation_table_equals_per_index_route(p, r, max_d):
    F = fq_make(p, r)
    for d in range(1, max_d + 1):
        for f in monic_irreducibles(F, d):
            rf = residue_field(f)
            for k in (12, 1):
                ctx = character_context(rf, k)
                per_n = {}
                for n in range(1, ctx.order):
                    if ctx.in_scope(n):
                        per_n[n] = ctx.W.valuation(l_value_at_one(ctx, n))
                    elif k == 12:
                        per_n[n] = ctx.W.valuation(l_report(ctx, n).s_at_one)
                    else:
                        continue
                    assert ctx.valuation(n) == per_n[n], (str(f), k, n)
                for n, v in per_n.items():
                    assert per_n[p * n % ctx.order] == v, (str(f), k, n)


def test_valuation_table_gathers_once_per_frobenius_orbit(monkeypatch):
    f = parse_poly("t^12 + t^3 + 1", fq_make(2, 1))
    rf = ResidueField(f.field, f.coeffs)  # a new field has no table yet
    reps = {min(n * 2**i % 4095 for i in range(12)) for n in range(1, 4095)}
    assert 340 <= len(reps) <= 360
    summed, witt_sum = [], CharacterContext._witt_sum

    def counted(self, weights, n):
        summed.append(n)
        return witt_sum(self, weights, n)

    monkeypatch.setattr(CharacterContext, "_witt_sum", counted)
    vals = [pic_eigenspace_length(rf, n) for n in range(1, 4095)]
    # the Witt sum runs once at each representative the screen leaves
    left = sorted(n for n in reps if not rf.screen.unit[n])
    assert 1 <= len(left) < len(reps) // 10
    assert sorted(summed) == left
    assert sum(v > 0 for v in vals) == 2


def test_escalation_and_scope_go_through_the_table():
    rf = residue_field(parse_poly("t^4 + t^2 - 1", fq_make(3, 1)))
    # v_3(L_40) = 1 saturates W_1, so k = 1 escalates to k = 2
    assert character_context(rf, 1).valuation(40) == 1
    assert character_context(rf, 2).valuation(40) == 1
    assert pic_eigenspace_length(rf, 40, k=1) == 1
    for n in (0, 41, 80, 81):
        with pytest.raises(FieldError):
            pic_eigenspace_length(rf, n)


# k = 12 builds the table in int64; at k = 40 the products m (p^k - 1)^2
# overflow int64, so the table is built in Python integers
TEICH_PRIMES = [((2, 1), "t^5 + t^2 + 1"), ((3, 1), "t^3 - t + 1"), ((2, 2), "t^2 + t + a"), ((5, 1), "t^2 + 2")]


@pytest.mark.parametrize("pr,prime", TEICH_PRIMES)
@pytest.mark.parametrize("k", [12, 40])
@pytest.mark.parametrize("offsets", [None, (1, 0, 2)])
def test_teich_table_equals_successive_witt_products(pr, prime, k, offsets, monkeypatch):
    rf = fresh_field(pr, prime)
    if offsets:  # the table's omega(gamma) is iterated from a steered start
        monkeypatch.setattr(WittRing, "_omega_start", steered_start(offsets))
    ctx = CharacterContext(rf, k)
    monkeypatch.undo()
    W = WittRing(rf, k)  # a fresh ring, whose omega(gamma) is iterated unsteered
    assert (W.m * (W.pk - 1) ** 2 < 1 << 63) == (k == 12)
    wg, cur, rows = W.teichmuller(rf.generator), W.one(), []
    for _ in range(ctx.order):
        rows.append(cur.coords)
        cur = cur * wg
    assert cur == W.one()
    assert ctx.teich.tolist() == [list(r) for r in rows]
    assert ctx.teich.dtype == (np.int64 if ctx._int64 else object)


def test_teich_table_takes_few_witt_multiplications(monkeypatch):
    # Q = 4096: the table needs m products for its matrix and one for the
    # closure check, besides those inside the Teichmuller lift itself
    rf = fresh_field((2, 1), "t^12 + t^3 + 1")
    count = {"all": 0, "lift": 0}
    mul, teichmuller = WittElem.__mul__, WittRing.teichmuller

    def counted_mul(self, other):
        count["all"] += 1
        return mul(self, other)

    def counted_teichmuller(self, v):
        before = count["all"]
        out = teichmuller(self, v)
        count["lift"] += count["all"] - before
        return out

    monkeypatch.setattr(WittElem, "__mul__", counted_mul)
    monkeypatch.setattr(WittRing, "teichmuller", counted_teichmuller)
    ctx = CharacterContext(rf, 12)
    assert ctx.teich.shape == (4095, 12)
    assert count["all"] - count["lift"] == rf.m + 1


def test_a_teich_table_that_does_not_close_is_refused(monkeypatch):
    doubled = lseries.power_rows

    def off_by_one(first, M, count, modulus):
        rows = doubled(first, M, count + 1, modulus)
        return rows[1:]

    monkeypatch.setattr(lseries, "power_rows", off_by_one)
    rf = fresh_field((3, 1), "t^3 - t + 1")
    with pytest.raises(ConsistencyError, match="does not close"):
        CharacterContext(rf, 12)


def test_a_searched_field_builds_one_teich_table_per_precision(monkeypatch):
    rf = fresh_field((3, 1), "t^3 - t + 1")
    built, real = [], lseries._teich_table

    def counted(W, order):
        built.append(W.k)
        return real(W, order)

    monkeypatch.setattr(lseries, "_teich_table", counted)
    a, b = CharacterContext(rf, 12), CharacterContext(rf, 12)
    assert built == [12] and a.teich is b.teich is rf.lifts[12]


def primes_up_to(limit):
    """Every prime with q^d <= limit over F_2, F_3, F_4, F_5, F_7, F_8,
    F_9 and F_16."""
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]:
        F, d = fq_make(p, r), 1
        while F.size**d <= limit:
            yield from monic_irreducibles(F, d)
            d += 1


def direct_power_sums(rf, t, ns):
    """Row j: sum of g^(-n) over the monic g of degree j in t, each g
    evaluated by Horner's rule in the field's scalar arithmetic."""
    q, order = rf.q, rf.order
    rows = []
    for j in range(rf.d):
        gs = []
        for tail in itertools.product(range(q), repeat=j):
            g = 1
            for c in tail:
                g = rf.add(rf.mul(g, t), c)
            gs.append(g)
        logs = rf._nplog[gs].astype(np.int64)
        rows.append(rf.vsum(rf._npexp[(-ns[:, None] * logs) % order], axis=1))
    return np.array(rows, dtype=np.int32)


def forced_route(route):
    """A ``_row_route`` that sends every row to route, or the cost's own
    choice at route "cost"."""
    return lambda F, j, count, real=lseries._row_route: real(F, j, count) if route == "cost" else route


@pytest.mark.parametrize("route", ["gather", "divide", "cost"])
def test_monic_power_sums_equal_the_direct_sums(route, monkeypatch):
    # every row j < d by the gather, by Carlitz's series and by the
    # cheaper of the two; t runs over the class of t and the field's
    # generator, whose monic g differ
    monkeypatch.setattr(lseries, "_row_route", forced_route(route))
    for f in primes_up_to(256):
        rf = residue_field(f)
        ns = np.arange(1, rf.order)
        for t in {rf.t_res, rf.generator}:
            want = direct_power_sums(rf, t, ns)
            assert np.array_equal(monic_power_sums(rf, t, rf.d, ns), want), (str(f), t)


def base_q_digit_sums(k, q, d):
    return sum(k // q**i % q for i in range(d))


def test_monic_power_sums_obey_carlitz_vanishing_law():
    # S_j(k) = 0 wherever j (q - 1) exceeds l(k), the base-q digit sum of
    # k = Q-1-n; checked on the power sums alone, with no screen
    zeros = 0
    for f in primes_up_to(256):
        rf = residue_field(f)
        ns = np.arange(1, rf.order)
        sums = monic_power_sums(rf, rf.t_res, rf.d, ns)
        digit_sum = base_q_digit_sums(rf.order - ns, rf.q, rf.d)
        for j, row in enumerate(sums):
            forced = j * (rf.q - 1) > digit_sum
            assert not row[forced].any(), (str(f), j)
            zeros += forced.sum()
    assert zeros > 10000


def assert_screen_matches_the_oracle(rf, ns):
    screen = mod_p_screen(rf)
    assert np.array_equal(screen.unit[ns], units_mod_p(rf, ns)), rf.prime_coeffs
    assert np.array_equal(screen.unit, screen.unit[screen.rep])


def test_the_screen_equals_the_gather_oracle():
    # every n up to q^d = 256, every orbit representative up to 2^10
    for f in primes_up_to(1 << 10):
        rf = residue_field(f)
        ns = np.arange(1, rf.order)
        if rf.size > 256:
            ns = ns[mod_p_screen(rf).rep[ns] == ns]
        assert_screen_matches_the_oracle(rf, ns)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_screen_equals_the_gather_oracle_at_q_to_the_16(seed):
    # a seeded prime with 2^16 elements over F_2, F_4 and F_16: the
    # oracle at every representative the screen leaves and at 256 more
    rng = np.random.default_rng(seed)
    for p, r, d in [(2, 1, 16), (2, 2, 8), (2, 4, 4)]:
        primes = monic_irreducibles(fq_make(p, r), d)
        f = primes[rng.integers(len(primes))]
        rf = ResidueField(f.field, f.coeffs)
        screen = mod_p_screen(rf)
        reps = np.flatnonzero(screen.rep == np.arange(rf.order))[1:]
        left = reps[~screen.unit[reps]]
        assert_screen_matches_the_oracle(rf, np.union1d(left, rng.choice(reps, 256, replace=False)))


def test_an_escalated_context_reuses_its_fields_screen(monkeypatch):
    rf = ResidueField(fq_make(3, 1), (2, 0, 1, 0, 1))  # t^4 + t^2 - 1, no table yet
    calls, sums = [], lseries._power_sums

    def counted(*args):
        calls.append(args)
        return sums(*args)

    monkeypatch.setattr(lseries, "_power_sums", counted)
    # v_3(L_40) = 1 saturates W_1, so k = 1 escalates to k = 2
    assert pic_eigenspace_length(rf, 40, k=1) == 1
    assert sorted(rf.valuations) == [1, 2] and len(calls) == 1


def test_an_out_of_scope_index_is_refused_before_any_table(monkeypatch):
    rf = fresh_field((3, 1), "t^4 + t^2 - 1")  # Q = 81, q - 1 = 2
    tables, teich = [], lseries._teich_table
    monkeypatch.setattr(lseries, "_teich_table", lambda *a: tables.append(a) or teich(*a))
    for n in (41, 80):  # odd, and Q - 1
        with pytest.raises(FieldError, match=f"^index {n} is not an in-scope character power$"):
            pic_eigenspace_length(rf, n)
    assert tables == [] and rf.valuations == {} and rf.screen is None


def test_a_dropped_field_is_freed_by_reference_counting():
    # nothing a field holds refers back to it, so once every table has
    # been built and read, dropping the field frees it with no collection
    gc.collect()
    gc.disable()
    try:
        rf = ResidueField(fq_make(3), (2, 0, 1, 0, 1))  # t^4 + t^2 - 1
        vals = [pic_eigenspace_length(rf, n) for n in range(2, rf.order, 2)]
        ctx = character_context(rf, 12)
        rep = l_report(ctx, 40)
        assert rep.valuation == vals[40 // 2 - 1] == 1
        field = weakref.ref(rf)
        del rf, ctx, rep
        assert field() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("pr,prime", [((2, 1), "t^9 + t^4 + 1"), ((3, 1), "t^6 + t + 2")])
def test_power_sums_do_not_depend_on_the_chunk_size(pr, prime, monkeypatch):
    rf = residue_field(parse_poly(prime, fq_make(*pr)))
    ns = np.arange(1, rf.order)
    tables = []
    for route in ("gather", "divide", "cost"):
        for cells in (1, fields.CHUNK_CELLS, 1 << 30):
            monkeypatch.setattr(lseries, "_row_route", forced_route(route))
            monkeypatch.setattr(fields, "CHUNK_CELLS", cells)
            tables.append(monic_power_sums(rf, rf.t_res, rf.d, ns))
    assert all(np.array_equal(t, tables[0]) for t in tables[1:])


def test_the_screen_computes_only_the_power_sums_it_needs(monkeypatch):
    # over F_2 every n is in scope, where row j has the weight j mod 2,
    # so no even row is computed; row 11 of a degree-12 prime only where
    # Carlitz's law allows S_11(k) != 0, 11 <= l(k)
    f = parse_poly("t^12 + t^3 + 1", fq_make(2, 1))
    rf = ResidueField(f.field, f.coeffs)
    gathered, divided = {}, []
    groups, divided_row = lseries._gather_groups, lseries._divided_row

    def counted_groups(q, rows, want):
        out = groups(q, rows, want)
        gathered.update((j, at) for held, at in out for j in held)
        return out

    def counted_division(F, j, E, D):
        divided.append(j)
        return divided_row(F, j, E, D)

    monkeypatch.setattr(lseries, "_gather_groups", counted_groups)
    monkeypatch.setattr(lseries, "_divided_row", counted_division)
    screen = mod_p_screen(rf)
    assert not [j for j in list(gathered) + divided if j % 2 == 0]
    assert 11 in gathered and 11 not in divided
    reps = screen.reps[gathered[11]]
    assert np.array_equal(reps, screen.reps[base_q_digit_sums(rf.order - screen.reps, 2, 12) >= 11])
    assert 1 <= reps.size < 5
    assert np.array_equal(screen.unit[1:], units_mod_p(rf, np.arange(1, rf.order)))


@pytest.mark.parametrize("p,d", [(2, 16), (3, 10)])
def test_the_screen_holds_a_few_tables_of_q_entries(p, d):
    # the screen keeps a few arrays of Q entries and gathers at most
    # CHUNK_CELLS cells at a time, in the direct sums and in each step of
    # divide_rows; with CHUNK_CELLS raised to 2^30 it peaked at 277 bytes
    # per element at 2^16 and 242 at 3^10, against 49 and 61
    f = monic_irreducibles(fq_make(p, 1), d)[5]
    rf = ResidueField(f.field, f.coeffs)
    tracemalloc.start()
    try:
        mod_p_screen(rf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * rf.size
