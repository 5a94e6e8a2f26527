"""Tests for the shared numeric kernels behind the Table 3 operations."""

import numpy as np
import pytest

from repro.ops.kernels import (
    clamp_kernel,
    fill_const_kernel,
    fill_mean_kernel,
    fir_filter_kernel,
    interpolate_gaps_kernel,
    zscore_kernel,
)


def mask_with_gap(n: int, gap: slice) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[gap] = False
    return mask


class TestZscore:
    def test_standardises_present_values(self):
        kernel = zscore_kernel()
        values = np.arange(100.0)
        result, mask = kernel(values, np.ones(100, dtype=bool))
        assert result.mean() == pytest.approx(0.0, abs=1e-12)
        assert result.std() == pytest.approx(1.0)
        assert mask.all()

    def test_ignores_absent_slots_in_statistics(self):
        kernel = zscore_kernel()
        values = np.array([0.0, 1000.0, 2.0, 4.0])
        mask = np.array([True, False, True, True])
        result, _ = kernel(values, mask)
        present = result[mask]
        assert present.mean() == pytest.approx(0.0, abs=1e-12)

    def test_constant_values_give_zero(self):
        kernel = zscore_kernel()
        result, _ = kernel(np.full(10, 7.0), np.ones(10, dtype=bool))
        np.testing.assert_allclose(result, 0.0)

    def test_all_absent_passthrough(self):
        kernel = zscore_kernel()
        values = np.arange(5.0)
        result, mask = kernel(values, np.zeros(5, dtype=bool))
        np.testing.assert_allclose(result, values)
        assert not mask.any()


class TestFillKernels:
    def test_fill_const_fills_short_gap(self):
        kernel = fill_const_kernel(max_gap_samples=3, constant=-1.0)
        values = np.arange(10.0)
        mask = mask_with_gap(10, slice(4, 6))
        new_values, new_mask = kernel(values, mask)
        assert new_mask.all()
        np.testing.assert_allclose(new_values[4:6], -1.0)

    def test_fill_const_leaves_long_gap(self):
        kernel = fill_const_kernel(max_gap_samples=3, constant=-1.0)
        mask = mask_with_gap(20, slice(5, 15))
        _, new_mask = kernel(np.arange(20.0), mask)
        assert not new_mask[5:15].any()

    def test_fill_mean_uses_neighbours(self):
        kernel = fill_mean_kernel(max_gap_samples=4)
        values = np.array([2.0, 2.0, 0.0, 0.0, 6.0, 6.0])
        mask = np.array([True, True, False, False, True, True])
        new_values, new_mask = kernel(values, mask)
        assert new_mask.all()
        np.testing.assert_allclose(new_values[2:4], 4.0)

    def test_leading_and_trailing_gaps_not_filled(self):
        kernel = fill_mean_kernel(max_gap_samples=10)
        mask = np.array([False, True, True, False])
        _, new_mask = kernel(np.arange(4.0), mask)
        assert not new_mask[0]
        assert not new_mask[3]

    def test_interpolation_kernel_is_linear(self):
        kernel = interpolate_gaps_kernel(max_gap_samples=5)
        values = np.array([0.0, 0.0, 0.0, 0.0, 8.0])
        mask = np.array([True, False, False, False, True])
        new_values, new_mask = kernel(values, mask)
        assert new_mask.all()
        np.testing.assert_allclose(new_values, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_full_mask_is_identity(self):
        kernel = fill_mean_kernel(max_gap_samples=3)
        values = np.arange(6.0)
        new_values, new_mask = kernel(values, np.ones(6, dtype=bool))
        np.testing.assert_allclose(new_values, values)
        assert new_mask.all()


class TestFirFilterKernel:
    def test_preserves_mask(self):
        kernel = fir_filter_kernel(numtaps=31, cutoff_hz=40, sample_rate_hz=500)
        mask = mask_with_gap(200, slice(50, 60))
        _, new_mask = kernel(np.random.default_rng(0).random(200), mask)
        np.testing.assert_array_equal(new_mask, mask)

    def test_dc_signal_passes_low_pass(self):
        kernel = fir_filter_kernel(numtaps=31, cutoff_hz=40, sample_rate_hz=500)
        values = np.full(500, 3.0)
        filtered, _ = kernel(values, np.ones(500, dtype=bool))
        # After the filter warm-up the DC level is preserved.
        np.testing.assert_allclose(filtered[100:], 3.0, atol=1e-6)

    def test_filters_exactly_as_scipy_lfilter(self):
        """SciPy is imported inside the kernel factory; the kernel still
        zero-fills absent samples and runs SciPy's FIR exactly."""
        from scipy import signal

        kernel = fir_filter_kernel(51, 40.0, 500.0)
        values = np.random.default_rng(3).standard_normal(1000)
        mask = mask_with_gap(1000, slice(300, 340))
        filtered, _ = kernel(values, mask)
        taps = signal.firwin(51, 40.0, fs=500.0)
        expected = signal.lfilter(taps, 1.0, np.where(mask, values, 0.0))
        np.testing.assert_array_equal(filtered, expected)


class TestClampKernel:
    def test_masks_out_of_range_values(self):
        kernel = clamp_kernel(-1.0, 1.0)
        values = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        _, mask = kernel(values, np.ones(5, dtype=bool))
        np.testing.assert_array_equal(mask, [False, True, True, True, False])

    def test_respects_existing_mask(self):
        kernel = clamp_kernel(-1.0, 1.0)
        values = np.zeros(3)
        _, mask = kernel(values, np.array([True, False, True]))
        np.testing.assert_array_equal(mask, [True, False, True])


def _random_rows(seed, n_rows=24, samples=60, gap_fraction=0.25):
    """Rows with a realistic mix: dense, gappy, constant and empty rows."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_rows, samples))
    mask = rng.random((n_rows, samples)) >= gap_fraction
    mask[0] = True  # fully present
    mask[1] = False  # fully absent
    values[2] = 7.5  # constant row (zscore's std == 0 branch)
    mask[2] = True
    mask[3, samples // 2 :] = False  # long trailing gap (> any fill limit)
    return values, mask


def _rowwise(kernel, values, mask):
    new_values = np.empty_like(values)
    new_mask = np.empty_like(mask)
    for row in range(values.shape[0]):
        result = kernel(values[row], mask[row])
        new_values[row], new_mask[row] = result
    return new_values, new_mask


class TestBatchedKernels:
    """The ``batched`` variants must be bit-identical to calling the scalar
    kernel row by row — the contract the vectorized backend's whole-run
    Transform lowering relies on."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zscore_batched_matches_rowwise(self, seed):
        kernel = zscore_kernel()
        values, mask = _random_rows(seed)
        ref_values, ref_mask = _rowwise(kernel, values, mask)
        new_values, new_mask = kernel.batched(values, mask)
        np.testing.assert_array_equal(new_values, ref_values)
        np.testing.assert_array_equal(new_mask, ref_mask)

    def test_zscore_scratch_serves_every_row_count(self):
        # One kernel sees runs of varying length: shorter runs reuse the
        # leading rows of the scratch sized for the longest, and a longer one
        # regrows it.
        kernel = zscore_kernel()
        for seed, n_rows in enumerate((24, 7, 30, 4)):
            values, mask = _random_rows(seed, n_rows=n_rows)
            ref_values, ref_mask = _rowwise(kernel, values, mask)
            out = np.empty_like(values)
            new_values, new_mask = kernel.batched(values, mask, out=out)
            np.testing.assert_array_equal(new_values, ref_values)
            np.testing.assert_array_equal(new_mask, ref_mask)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_gap", [1, 4, 16])
    def test_fill_mean_batched_matches_rowwise(self, seed, max_gap):
        kernel = fill_mean_kernel(max_gap)
        values, mask = _random_rows(seed)
        ref_values, ref_mask = _rowwise(kernel, values, mask)
        new_values, new_mask = kernel.batched(values, mask)
        np.testing.assert_array_equal(new_values, ref_values)
        np.testing.assert_array_equal(new_mask, ref_mask)

    def test_fill_const_batched_matches_rowwise(self):
        kernel = fill_const_kernel(4, constant=-3.0)
        values, mask = _random_rows(5)
        ref_values, ref_mask = _rowwise(kernel, values, mask)
        new_values, new_mask = kernel.batched(values, mask)
        np.testing.assert_array_equal(new_values, ref_values)
        np.testing.assert_array_equal(new_mask, ref_mask)

    def test_batched_out_parameter_writes_in_place(self):
        for kernel in (zscore_kernel(), fill_mean_kernel(4)):
            values, mask = _random_rows(3)
            ref_values, ref_mask = _rowwise(kernel, values, mask)
            out = np.empty_like(values)
            new_values, new_mask = kernel.batched(values, mask, out=out)
            # Either the kernel filled `out` or it had nothing to change and
            # returned its input unchanged; both must match the reference.
            np.testing.assert_array_equal(new_values, ref_values)
            np.testing.assert_array_equal(new_mask, ref_mask)
            if new_values is out:
                np.testing.assert_array_equal(out, ref_values)

    def test_fill_batched_dense_rows_alias_inputs(self):
        # Nothing to fill: the batched fill may return its inputs unchanged
        # (callers copy), and must not write to `out`.
        kernel = fill_mean_kernel(4)
        values = np.random.default_rng(0).standard_normal((4, 20))
        mask = np.ones((4, 20), dtype=bool)
        out = np.full_like(values, np.nan)
        new_values, new_mask = kernel.batched(values, mask, out=out)
        np.testing.assert_array_equal(new_values, values)
        np.testing.assert_array_equal(new_mask, mask)
        assert np.isnan(out).all()

    def test_clamp_is_its_own_batched_form(self):
        kernel = clamp_kernel(-1.0, 1.0)
        values, mask = _random_rows(4)
        ref_values, ref_mask = _rowwise(kernel, values, mask)
        new_values, new_mask = kernel.batched(values, mask)
        np.testing.assert_array_equal(new_values, ref_values)
        np.testing.assert_array_equal(new_mask, ref_mask)
