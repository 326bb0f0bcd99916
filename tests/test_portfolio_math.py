import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drlfolio.errors import DegenerateActionError, RuinError
from drlfolio.portfolio_math import (
    enforce_arbitrage,
    enforce_arbitrage_batch,
    evolve_weights,
    initial_weights,
    normalize_signed,
    shorted_weight,
    step_value,
    transaction_cost,
    validate_weights,
    weighted_log_return,
)
from conftest import random_weights
from oracles import cost_by_sum, dot_log_return, evolve_by_value_accounting, sign_rule_by_cases


class TestNormalizeSigned:
    def test_long_short_pair(self):
        assert normalize_signed(np.array([1.0, -1.0])).tolist() == [0.5, -0.5]

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateActionError):
            normalize_signed(np.array([0.0, 0.0, 0.0]))

    def test_cash_only(self):
        assert normalize_signed(np.array([2.0, 0.0, 0.0])).tolist() == [1.0, 0.0, 0.0]

    def test_negative_cash_clamped(self):
        w = normalize_signed(np.array([-1.0, 0.5]))
        assert w.tolist() == [0.0, 1.0]

    def test_bulk_invariants_hold(self, rng):
        # 1e5 random raw vectors: |w| sums to one, cash stays in [0, 1].
        for _ in range(100_000):
            raw = rng.uniform(-5, 5, size=rng.integers(2, 8))
            try:
                w = normalize_signed(raw)
            except DegenerateActionError:
                continue
            s = np.abs(w).sum()
            assert abs(s - 1.0) <= 1e-9
            assert 0.0 <= w[0] <= 1.0
            validate_weights(w)


class TestInitialWeights:
    def test_single_asset(self):
        assert initial_weights(1).tolist() == [1.0, 0.0]

    def test_five_assets(self):
        assert initial_weights(5).tolist() == [1, 0, 0, 0, 0, 0]

    def test_valid(self):
        validate_weights(initial_weights(3))


class TestShortedWeight:
    def test_worked_example(self):
        assert shorted_weight(300_000, 700_000) == -0.3

    def test_all_short_limit(self):
        for x in (1.0, 123.0, 9e9):
            assert shorted_weight(x, 0.0) == -1.0

    def test_formula(self):
        assert shorted_weight(250_000, 750_000) == pytest.approx(-0.25, abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            shorted_weight(0.0, 100.0)
        with pytest.raises(ValueError):
            shorted_weight(100.0, -1.0)


# Signed weight books with many exact zeros, so every branch of the sign rule
# (no benchmark, benchmark only, one-sided, mixed) is drawn.
weight_books = st.integers(3, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.125, 1e-300]),
             min_size=k, max_size=k),
    min_size=1, max_size=8))


@st.composite
def books_and_relatives(draw, books=1, days=1):
    """``books`` valid signed weight vectors over cash and one shared count of
    1-6 risky assets, exact zeros included, and ``days`` rows of price
    relatives with cash at 1."""
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
    result = []
    for _ in range(books):
        raw = np.array(draw(st.lists(entry, min_size=m + 1, max_size=m + 1)))
        raw[0] = abs(raw[0])
        assume(np.abs(raw).sum() > 0)
        result.append(raw / np.abs(raw).sum())
    rows = draw(st.lists(st.lists(st.floats(0.2, 5.0), min_size=m, max_size=m),
                         min_size=days, max_size=days))
    return result, np.array([[1.0, *row] for row in rows])


class TestEnforceArbitrage:
    def test_flip_when_book_is_one_sided(self):
        w = enforce_arbitrage(np.array([0.2, 0.3, 0.5]))
        assert w.tolist() == [0.2, 0.3, -0.5]

    def test_mixed_signs_untouched(self):
        w = np.array([0.2, 0.3, -0.5])
        assert enforce_arbitrage(w).tolist() == w.tolist()

    def test_benchmark_only_book_untouched(self):
        w = np.array([0.0, 0.0, 1.0])
        assert enforce_arbitrage(w).tolist() == w.tolist()

    def test_all_short_book_flips_benchmark_positive(self):
        w = enforce_arbitrage(np.array([0.0, -0.5, -0.5]))
        assert w.tolist() == [0.0, -0.5, 0.5]

    def test_idempotent_and_sum_preserving(self, rng):
        for _ in range(5_000):
            w = random_weights(rng, rng.integers(2, 7))
            once = enforce_arbitrage(w)
            assert np.abs(once).sum() == pytest.approx(np.abs(w).sum(), abs=0)
            assert enforce_arbitrage(once).tolist() == once.tolist()

    def test_post_condition_sign_mix(self, rng):
        # After enforcement: benchmark and some other nonzero risky weight
        # implies the risky book cannot be single-signed.
        for _ in range(5_000):
            w = enforce_arbitrage(random_weights(rng, rng.integers(2, 7)))
            risky = w[1:]
            if risky[-1] != 0 and np.any(risky[:-1] != 0):
                assert np.abs(risky).sum() != abs(risky.sum())

    @settings(max_examples=300, deadline=None)
    @given(rows=weight_books)
    def test_batch_agrees_with_single(self, rows):
        batch = np.array(rows)
        out, flipped = enforce_arbitrage_batch(batch)
        assert out.shape == batch.shape and flipped.shape == (len(rows),)
        for k, row in enumerate(batch):
            single = enforce_arbitrage(row)
            expected, expected_flip = sign_rule_by_cases(row)
            assert single.tobytes() == out[k].tobytes() == expected.tobytes()
            assert flipped[k] == expected_flip == (np.sign(single[-1]) != np.sign(row[-1]))
            assert np.array_equal(np.abs(single), np.abs(row))


class TestEvolveWeights:
    def test_two_asset_drift(self):
        w = evolve_weights(np.array([0.5, 0.5]), np.array([1.0, 1.1]))
        expected = evolve_by_value_accounting([0.5, 0.5], [1.0, 1.1])
        assert np.allclose(w, expected, atol=1e-15)
        assert w[0] == pytest.approx(0.5 / 1.05)

    def test_short_drift(self):
        w = evolve_weights(np.array([0.2, -0.8]), np.array([1.0, 0.9]))
        assert w[0] == pytest.approx(0.2 / 0.92, abs=1e-12)
        assert w[1] == pytest.approx(-0.72 / 0.92, abs=1e-12)

    def test_flat_prices_are_identity(self, rng):
        w = random_weights(rng, 4)
        assert evolve_weights(w, np.ones(5)).tolist() == w.tolist()

    def test_nonpositive_relative_rejected(self):
        with pytest.raises(ValueError):
            evolve_weights(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_matches_value_accounting_oracle(self, rng):
        worst = 0.0
        for _ in range(10_000):
            m = int(rng.integers(1, 7))
            w = random_weights(rng, m)
            y = np.concatenate([[1.0], rng.uniform(0.5, 1.6, size=m)])
            got = evolve_weights(w, y)
            expected = evolve_by_value_accounting(w, y)
            worst = max(worst, float(np.max(np.abs(got - expected))))
            assert abs(np.abs(got).sum() - 1.0) <= 1e-12
        assert worst < 1e-12


    @settings(max_examples=200, deadline=None)
    @given(drawn=books_and_relatives())
    def test_keeps_unit_exposure_and_signs(self, drawn):
        (w,), ys = drawn
        out = evolve_weights(w, ys[0])
        assert abs(np.abs(out).sum() - 1.0) <= 1e-12
        assert np.array_equal(np.sign(out), np.sign(w))


class TestTransactionCost:
    def test_first_day_full_investment(self, rng):
        w0 = initial_weights(4)
        target = random_weights(rng, 4)
        target[0] = 0.0
        target /= np.abs(target).sum()
        assert transaction_cost(w0, target, 0.0025) == pytest.approx(0.0025, abs=1e-15)

    def test_no_trade_no_cost(self, rng):
        w = random_weights(rng, 3)
        assert transaction_cost(w, w, 0.0025) == 0.0

    def test_formula_case(self):
        drifted = np.array([0.4762, 0.5238])
        target = np.array([0.5, 0.5])
        expected = cost_by_sum(drifted, target, 0.0025)
        assert transaction_cost(drifted, target, 0.0025) == pytest.approx(expected, abs=1e-18)
        assert expected == pytest.approx(5.95e-5, abs=1e-9)

    def test_cash_excluded_from_turnover(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert transaction_cost(a, b, 0.01) == pytest.approx(0.01)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(2_000):
            a, b, c = (random_weights(rng, 4) for _ in range(3))
            ab = transaction_cost(a, b, 0.0025)
            assert ab == transaction_cost(b, a, 0.0025)
            assert transaction_cost(a, c, 0.0025) <= ab + transaction_cost(b, c, 0.0025) + 1e-15
            assert 0.0 <= ab <= 2 * 0.0025 + 1e-15


    @settings(max_examples=200, deadline=None)
    @given(drawn=books_and_relatives(books=3), mu=st.floats(0.0, 0.01),
           cash=st.floats(0.0, 1.0))
    def test_symmetric_cash_blind_and_triangle(self, drawn, mu, cash):
        (a, b, c), _ = drawn
        ab = transaction_cost(a, b, mu)
        assert ab == transaction_cost(b, a, mu)
        recashed = np.concatenate([[cash], b[1:]])
        assert transaction_cost(a, recashed, mu) == ab
        assert transaction_cost(a, c, mu) <= ab + transaction_cost(b, c, mu) + 1e-15


class TestStepValue:
    def test_single_asset_growth(self):
        rho, gamma = step_value(1.0, np.array([0.0, 1.0]), np.array([1.0, np.exp(0.01)]), 0.0)
        assert gamma == pytest.approx(0.01, abs=1e-15)
        assert rho == pytest.approx(np.exp(0.01), abs=1e-15)

    def test_short_gains_on_fall(self):
        rho, gamma = step_value(1.0, np.array([0.0, -1.0]), np.array([1.0, 0.9]), 0.0)
        assert gamma == pytest.approx(-np.log(0.9), abs=1e-15)
        assert gamma > 0

    def test_flat_day(self, rng):
        w = random_weights(rng, 3)
        rho, gamma = step_value(2.5, w, np.ones(4), 0.0)
        assert rho == 2.5
        assert gamma == 0.0

    def test_ruinous_cost(self):
        with pytest.raises(RuinError):
            step_value(1.0, np.array([1.0, 0.0]), np.ones(2), 1.0)

    def test_zero_cost_steps_compose(self, rng):
        w = random_weights(rng, 3)
        ys = [np.concatenate([[1.0], rng.uniform(0.8, 1.2, 3)]) for _ in range(40)]
        rho = 1.0
        total_gamma = 0.0
        for y in ys:
            rho, gamma = step_value(rho, w, y, 0.0)
            total_gamma += gamma
        log_sum = sum(np.log(y) @ w for y in ys)
        assert abs(total_gamma - log_sum) < 1e-10
        assert abs(np.log(rho) - log_sum) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.integers(1, 10).flatmap(lambda days: st.tuples(
               books_and_relatives(days=days),
               st.lists(st.floats(0.0, 0.01), min_size=days, max_size=days))),
           rho0=st.floats(0.1, 10.0))
    def test_log_value_telescopes(self, drawn, rho0):
        """Over drifting days with costs, log(final / initial value) is the sum
        of the daily log returns."""
        ((w,), ys), costs = drawn
        rho, total = rho0, 0.0
        for y, cost in zip(ys, costs):
            rho, gamma = step_value(rho, w, y, cost)
            total += gamma
            w = evolve_weights(w, y)
        assert abs(np.log(rho / rho0) - total) <= 1e-12 * (1.0 + len(ys))

    def test_unit_leverage_bitwise_identical(self, rng):
        for _ in range(200):
            w = random_weights(rng, 4)
            y = np.concatenate([[1.0], rng.uniform(0.7, 1.4, 4)])
            cost = float(rng.uniform(0, 0.004))
            plain = step_value(3.0, w, y, cost, leverage=None)
            levered = step_value(3.0, w, y, cost, leverage=np.ones(5))
            assert plain == levered

    def test_leverage_scales_growth(self):
        lam = np.array([1.0, 2.0])
        rho, gamma = step_value(1.0, np.array([0.0, 1.0]), np.array([1.0, np.exp(0.01)]), 0.0, lam)
        assert gamma == pytest.approx(0.02, abs=1e-15)


class TestWeightedLogReturn:
    def test_symmetric_cancellation(self):
        y = np.array([1.0, np.exp(0.02), np.exp(-0.02)])
        assert weighted_log_return(np.array([0.0, 0.5, 0.5]), y) == pytest.approx(0.0, abs=1e-15)

    def test_long_short_cancellation(self):
        n = 20
        w = np.concatenate([[0.0], np.full(n, 1 / 40), np.full(n, -1 / 40)])
        y = np.concatenate([[1.0], np.full(2 * n, np.exp(0.01))])
        assert weighted_log_return(w, y) == pytest.approx(0.0, abs=1e-15)

    def test_random_case_matches_dot_product(self, rng):
        for _ in range(1_000):
            w = random_weights(rng, 5)
            y = np.concatenate([[1.0], rng.uniform(0.6, 1.5, 5)])
            lam = rng.uniform(0.5, 2.0, 6)
            assert weighted_log_return(w, y, lam) == pytest.approx(
                dot_log_return(w, y, lam), abs=1e-14)
