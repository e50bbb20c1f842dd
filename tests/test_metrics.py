import warnings
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from mscr import metrics
from mscr.code import validate_params
from mscr.metrics import (
    DEFAULT_TABLE_ROWS,
    RepairMetrics,
    access_count,
    bounds,
    comparison_table,
    g_ratio,
    render_table_csv,
    render_table_text,
)
from mscr.oracle import access_set, vec_to_int
from mscr.repair import RepairJob, run_repair

from conftest import PARAM_SETS, make_codeword, repair_stripe

G_EXPECTED = {
    (1, 2): Fraction(11, 12),
    (2, 2): Fraction(7, 9),
    (3, 2): Fraction(53, 80),
    (4, 2): Fraction(43, 75),
    (5, 2): Fraction(127, 252),
    (1, 3): Fraction(31, 32),
    (2, 3): Fraction(119, 135),
    (3, 3): Fraction(101, 128),
    (4, 3): Fraction(619, 875),
    (5, 3): Fraction(1103, 1728),
}

ENVELOPE_EXPECTED = {
    (1, 2): Fraction(1),
    (2, 2): Fraction(5, 6),
    (3, 2): Fraction(7, 10),
    (4, 2): Fraction(3, 5),
    (5, 2): Fraction(11, 21),
    (1, 3): Fraction(9, 8),
    (2, 3): Fraction(1),
    (3, 3): Fraction(7, 8),
    (4, 3): Fraction(27, 35),
    (5, 3): Fraction(11, 16),
}

OPTIMAL_EXPECTED = {
    (1, 2): Fraction(2, 3),
    (2, 2): Fraction(1, 2),
    (3, 2): Fraction(2, 5),
    (4, 2): Fraction(1, 3),
    (5, 2): Fraction(2, 7),
    (1, 3): Fraction(3, 4),
    (2, 3): Fraction(3, 5),
    (3, 3): Fraction(1, 2),
    (4, 3): Fraction(3, 7),
    (5, 3): Fraction(3, 8),
}


class TestGRatio:
    @pytest.mark.parametrize("dk_h", sorted(G_EXPECTED))
    def test_exact_values(self, dk_h):
        assert g_ratio(*dk_h) == G_EXPECTED[dk_h]

    def test_specific_decimals(self):
        assert float(g_ratio(1, 2)) == pytest.approx(0.9167, abs=5e-5)
        assert float(g_ratio(2, 3)) == pytest.approx(0.8815, abs=5e-5)
        assert float(g_ratio(5, 2)) == pytest.approx(0.504, abs=5e-4)
        assert g_ratio(1, 3) == Fraction(31, 32)  # exactly 0.96875

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(ValueError):
            g_ratio(0, 2)
        with pytest.raises(ValueError):
            g_ratio(2, 0)
        with pytest.raises(ValueError):
            g_ratio(-1, 2)

    @pytest.mark.parametrize("dk,h", [(0, 2), (2, 0), (-1, 2)])
    def test_envelope_and_optimal_refuse_nonpositive_arguments(self, dk, h):
        with pytest.raises(ValueError, match="arguments must be positive"):
            metrics.access_envelope(dk, h)
        with pytest.raises(ValueError, match="arguments must be positive"):
            metrics.optimal_access_ratio(dk, h)

    def test_h_one_defined(self):
        assert g_ratio(1, 1) == 1 - Fraction(1, 2) * Fraction(1, 2)

    @pytest.mark.parametrize("dk", range(1, 8))
    @pytest.mark.parametrize("h", range(2, 6))
    def test_strictly_below_envelope_and_below_twice_optimal(self, dk, h):
        g = g_ratio(dk, h)
        assert g < 1
        assert g < metrics.access_envelope(dk, h)
        assert g < 2 * metrics.optimal_access_ratio(dk, h)
        assert g >= metrics.optimal_access_ratio(dk, h)

    def test_monotonicity_in_h_reported_not_asserted(self):
        # observation only: report a violation as a warning, never fail
        for dk in range(1, 8):
            values = [g_ratio(dk, h) for h in range(1, 8)]
            if any(b <= a for a, b in zip(values, values[1:])):
                warnings.warn(f"G(d-k={dk}, h) is not strictly increasing in h: {values}")


class TestComparisonTable:
    def test_default_rows(self):
        table = comparison_table(DEFAULT_TABLE_ROWS)
        assert [(row.d_minus_k, row.h) for row in table] == list(DEFAULT_TABLE_ROWS)
        for row in table:
            key = (row.d_minus_k, row.h)
            assert row.g == G_EXPECTED[key]
            assert row.envelope == ENVELOPE_EXPECTED[key]
            assert row.optimal == OPTIMAL_EXPECTED[key]

    def test_rendered_four_decimals(self):
        table = comparison_table([(3, 2), (1, 3)])
        assert table[0].rendered() == ("0.6625", "0.7000", "0.4000")
        assert table[1].rendered() == ("0.9688", "1.1250", "0.7500")

    def test_text_and_csv_rendering(self):
        table = comparison_table([(1, 2)])
        text = render_table_text(table)
        assert "0.9167" in text and "11/12" in text
        csv = render_table_csv(table)
        assert csv.splitlines()[1].startswith("1,2,11/12,0.9167,1,1.0000,2/3,0.6667")

    def test_custom_rows(self):
        (row,) = comparison_table([(6, 2)])
        assert row.g == 1 - Fraction(6, 8) * Fraction(6, 7) ** 2


class TestBounds:
    def test_small_code_bounds(self, example1):
        b = bounds(example1)
        assert b.cooperative == 96
        assert b.access == 64
        assert b.single == Fraction(2 * 48, 2) == 48
        assert b.centralized == 64

    def test_h1_cooperative_reduces_to_single(self):
        params = validate_params(5, 2, 4, 1)
        b = bounds(params)
        assert b.cooperative == b.single == Fraction(4 * params.N, 3)


class TestAccessSet:
    def test_small_exact(self, example1, example1_codeword):
        job = RepairJob(example1, (0, 1), (2, 3))
        got = access_set(2, job)
        assert len(got) == 44
        expect = set()
        for b in (2, 3):
            for a3 in range(2):
                for a2 in range(2):
                    for a1 in range(2):
                        for a0 in range(2):
                            expect.add((b, (a0, a1, a2, a3)))
        for a3 in range(2):
            for a2 in range(2):
                for a1 in range(2):
                    for a0 in range(2):
                        if a0 == 0 or a1 == 0:
                            expect.add((1, (a0, a1, a2, a3)))
        assert got == expect
        assert access_count(job) == 44

    def test_brute_force_count(self):
        params = validate_params(5, 2, 3, 2)
        job = RepairJob(params, (0, 1), (2, 3, 4))
        got = access_set(2, job)
        # brute force: planes 2..3 everywhere, plane 1 where a0 = 0 or a1 = 0
        count = 2 * 2**5 + sum(
            1 for a in range(2**5) if a % 2 == 0 or (a // 2) % 2 == 0
        )
        assert len(got) == count == 88
        assert Fraction(count) == params.N * g_ratio(1, 2)

    def test_same_shape_for_every_helper(self, example1):
        job = RepairJob(example1, (0, 1), (2, 3))
        assert access_set(2, job) == access_set(3, job)

    def test_non_helper_rejected(self, example1):
        job = RepairJob(example1, (0, 1), (2, 3))
        with pytest.raises(ValueError, match="not a helper"):
            access_set(0, job)

    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_closed_form_equals_materialized(self, nkdh):
        params = validate_params(*nkdh)
        failed = tuple(range(params.h))
        helpers = tuple(range(params.h, params.h + params.d))
        job = RepairJob(params, failed, helpers)
        assert len(access_set(helpers[0], job)) == access_count(job)
        assert Fraction(access_count(job)) == params.N * g_ratio(params.d - params.k, params.h)


class TestMeasuredMetrics:
    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_run_matches_closed_forms(self, nkdh):
        params = validate_params(*nkdh)
        cw = make_codeword(params, seed=53)
        failed = tuple(range(params.h))
        helpers = tuple(range(params.h, params.h + params.d))
        job = RepairJob(params, failed, helpers)
        _, transcript = repair_stripe(job, {u: cw[u] for u in helpers})
        m = RepairMetrics.from_run(job, transcript)
        planes = params.d - params.k + params.h
        assert m.beta1 == params.N // planes
        assert m.beta2 == params.N // planes
        assert m.gamma == params.h * (params.d + params.h - 1) * params.N // planes
        g = g_ratio(params.d - params.k, params.h)
        for u in helpers:
            assert Fraction(m.per_helper_access[u]) == params.N * g
        assert m.gamma_A == params.d * m.per_helper_access[helpers[0]]
        # engine log equals the closed-form index set: one job mask for every helper
        expected = np.zeros((params.planes, params.s_pow_n), dtype=bool)
        for b, a in access_set(helpers[0], job):
            expected[b - 1, vec_to_int(a, params.s)] = True
        for u in helpers:
            assert transcript.access_logs[u].mask is job.context.access
        assert np.array_equal(job.context.access, expected)

    @staticmethod
    def stub(edges):
        """A transcript whose messages carry `edges`: (phase, sender, receiver) -> count."""
        return SimpleNamespace(access_logs={}, messages=[
            SimpleNamespace(phase=phase, sender=u, receiver=v, count=c)
            for (phase, u, v), c in edges.items()])

    def test_nonuniform_transcript_rejected(self, example1):
        job = RepairJob(example1, (0, 1), (2, 3))
        with pytest.raises(ValueError, match="uniform"):
            RepairMetrics.from_run(job, self.stub({
                ("download", 2, 0): 16, ("download", 3, 0): 16,
                ("download", 2, 1): 16, ("download", 3, 1): 15,
                ("cooperative", 0, 1): 16, ("cooperative", 1, 0): 16,
            }))

    def test_wrong_edge_count_rejected(self, example1):
        job = RepairJob(example1, (0, 1), (2, 3))
        with pytest.raises(ValueError, match="expected 4 edges, transcript has 3"):
            RepairMetrics.from_run(job, self.stub({
                ("download", 2, 0): 16, ("download", 3, 0): 16, ("download", 2, 1): 16,
                ("cooperative", 0, 1): 16, ("cooperative", 1, 0): 16,
            }))

    def test_cooperative_edge_without_cooperative_phase_rejected(self):
        # h = 1 has no cooperative phase, so the edge breaks the gamma identity
        params = validate_params(5, 2, 4, 1)
        job = RepairJob(params, (3,), (0, 1, 2, 4))
        edges = {("download", u, 3): params.N // params.planes for u in (0, 1, 2, 4)}
        edges["cooperative", 0, 3] = params.N // params.planes
        with pytest.raises(ValueError, match="violates gamma"):
            RepairMetrics.from_run(job, self.stub(edges))


@pytest.mark.parametrize("nkdh", PARAM_SETS + [(6, 2, 4, 2), (6, 2, 3, 2)])
def test_access_never_exceeds_column(nkdh):
    from mscr.metrics import union_v_size

    params = validate_params(*nkdh)
    failed = tuple(range(params.h))
    helpers = tuple(range(params.h, params.h + params.d))
    job = RepairJob(params, failed, helpers)
    count = access_count(job)
    partial = union_v_size(params.n, params.s, params.h)
    assert count == params.h * params.s_pow_n + (params.d - params.k) * partial
    assert count <= params.N


class TestAccessByDependency:
    """The symbols each helper reads, measured from what the engine computes.

    run_repair is F_p-linear in the helper columns, so on the unit stripe
    that holds 1 at one helper symbol and 0 everywhere else, a repaired
    symbol is nonzero exactly when it depends on that helper symbol.  A
    helper symbol is needed when some repaired symbol depends on it, and
    the needed set of every helper must be the declared access mask: an
    unused read fails, and so does an undeclared use.  One batch holds the
    d*N unit stripes of a pair, d*N stripes of d*N symbols per node, so the
    check is kept to d*N <= 1024."""

    @pytest.mark.parametrize("nkdh", PARAM_SETS)
    def test_needed_symbols_are_the_declared_access(self, nkdh):
        params = validate_params(*nkdh)
        d, width = params.d, params.d * params.N
        assert width <= 1024
        units = np.eye(width, dtype=np.uint16).reshape(width, d, params.planes, params.s_pow_n)
        pairs = 0
        for failed in combinations(range(params.n), params.h):
            rest = [u for u in range(params.n) if u not in failed]
            for helpers in combinations(rest, d):
                job = RepairJob(params, failed, helpers)
                repaired, _ = run_repair(job, {u: units[:, m] for m, u in enumerate(helpers)})
                # needed[m]: the symbols of helper m some repaired symbol depends on
                needed = np.zeros(width, dtype=bool)
                for col in repaired.values():
                    needed |= col.reshape(width, -1).any(axis=1)
                for m, u in enumerate(helpers):
                    used = needed.reshape(d, params.planes, params.s_pow_n)[m]
                    assert np.array_equal(used, job.context.access), (failed, u)
                    assert np.count_nonzero(used) == access_count(job)
                pairs += 1
        assert pairs == comb(params.n, params.h) * comb(params.n - params.h, d)
