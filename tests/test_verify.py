"""The verify suite's checks: drawn first, evaluated in blocked batch kernel calls.

Batching must not turn a check on every item into a check on an
aggregate: a fault in one item of a batch must fail its check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobocurve as sc
from sobocurve import metric, verify
from sobocurve.sampling import random_curve, random_field
from sobocurve.verify import CHECKS, run_suite

SEED = 4
RELATIVE = 1e-9


def perturbed(kernel, target):
    """`kernel` with item `target` of its stacked outputs, counted over all calls, off by 1e-9."""
    seen = 0

    def call(*args, **kwargs):
        nonlocal seen
        out = kernel(*args, **kwargs)
        i, seen = target - seen, seen + len(out[0])
        if not 0 <= i < len(out[0]):
            return out
        if kernel.__name__ == "_form":  # (values, pieces): G per item
            values = out[0].copy()
            values[i] *= 1.0 + RELATIVE
            return values, out[1]
        s, u = out  # `_true_jet`: the speed and D_s^k h, k >= 1, per item
        s, u = s.copy(), [uk.copy() for uk in u]
        for a in (s, *u[1:]):
            a[i] *= 1.0 + RELATIVE
        return s, u

    return call


def test_checks_pass_unperturbed():
    checks = dict(CHECKS)
    for name in ("metric_algebra", "exact_discrete_identities"):
        assert checks[name](np.random.default_rng(SEED))[0]


@pytest.mark.parametrize(
    "name, module, kernel, target",
    [
        ("metric_algebra", metric, "_form", 7 * 7 + 3),  # G(g, h) of draw 7, mid-block
        ("metric_algebra", metric, "_form", 140 + 2 * 12),  # G(rho h, rho h) of draw 12 under si
        ("exact_discrete_identities", verify, "_true_jet", 7),  # D_s^k h on curve 7
        ("exact_discrete_identities", verify, "_true_jet", 20 + 11),  # on curve 11 scaled
        ("exact_discrete_identities", verify, "_true_jet", 40 + 19),  # speed of shifted curve 19
        ("exact_discrete_identities", verify, "_true_jet", 60 + 5),  # D_s^2 h on rotated curve 5
    ],
)
def test_one_faulty_item_of_a_batch_fails_its_check(monkeypatch, name, module, kernel, target):
    monkeypatch.setattr(module, kernel, perturbed(getattr(module, kernel), target))
    ok, detail = dict(CHECKS)[name](np.random.default_rng(SEED))
    assert not ok, detail


def test_suite_kernel_calls_hold_at_most_one_block(monkeypatch, clear_verify_cache):
    clear_verify_cache()
    sizes = []
    form, jet = metric._form, verify._true_jet

    def recording_form(cfg, grid, samples, h, g=None, *args, **kwargs):
        sizes.append(h[..., 0].size * (1 if g is None else 2))
        return form(cfg, grid, samples, h, g, *args, **kwargs)

    def recording_jet(grid, samples, *args):
        sizes.append(samples[..., 0].size)
        return jet(grid, samples, *args)

    monkeypatch.setattr(metric, "_form", recording_form)
    monkeypatch.setattr(verify, "_true_jet", recording_jet)
    assert run_suite(SEED)["all_ok"]
    assert len(sizes) > 0
    assert max(sizes) <= metric._BLOCK_POINTS


SEED_FREE = {
    "derivative_convergence_order": "_check_convergence_order",
    "power_law_classifier_agreement": "_check_classifier_agreement",
    "completeness_reports": "_check_completeness_reports",
    "radial_consistency": "_check_radial_consistency",
    "solver_monotone_energy": "_check_solver_monotone",
    "counterexample_sequence": "_check_counterexample",
}


class NoDraws:
    """A generator stand-in that fails on any use."""

    def __getattribute__(self, name):
        raise AssertionError(f"a seed-free check read rng.{name}")


@pytest.mark.parametrize("name", SEED_FREE)
def test_seed_free_checks_read_no_generator(name, clear_verify_cache):
    clear_verify_cache()
    ok, detail = dict(CHECKS)[name](NoDraws())
    assert ok, detail


def test_second_suite_reuses_the_seed_free_rows(clear_verify_cache):
    clear_verify_cache()
    first = run_suite(SEED)
    bodies = [getattr(verify, fn) for fn in SEED_FREE.values()]
    assert [body.cache_info().misses for body in bodies] == [1] * len(SEED_FREE)
    second = run_suite(SEED + 1)
    assert [body.cache_info().misses for body in bodies] == [1] * len(SEED_FREE)
    rows = [{r["name"]: r for r in suite["results"]} for suite in (first, second)]
    assert all(rows[0][name] == rows[1][name] for name in SEED_FREE)


def test_a_check_that_raises_becomes_an_error_row(monkeypatch):
    def broken(rng):
        raise ValueError("no such input")

    monkeypatch.setattr(verify, "CHECKS", [*CHECKS[:1], ("broken", broken)])
    payload = run_suite(SEED)
    assert payload["results"][1] == {"name": "broken", "ok": False,
                                     "detail": "error: no such input"}
    assert payload["results"][0]["ok"] and not payload["all_ok"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.sampled_from([64, 128, 512]))
def test_property_poincare_inequalities_off_the_suite_grid(seed, n_points):
    # The three inequalities of `poincare_inequalities`, with its slack,
    # through the public kernels and at grids other than its N = 512.
    grid = sc.Grid(n_points)
    rng = np.random.default_rng(seed)
    c, h = random_curve(grid, rng), random_field(grid, rng)
    slack = 1.0 + 1e-3
    ell = sc.curve_length(c)
    u = [sc.arc_derivative(c, h, k).values for k in range(5)]
    l2 = [sc.integrate_ds(c, np.sum(uk**2, axis=1)) for uk in u]  # |D_s^k h|^2_L2(ds)
    assert np.max(np.sum(u[1] ** 2, axis=1)) <= (ell / 4.0) * l2[2] * slack
    assert l2[1] <= (ell**2 / 4.0) * l2[2] * slack
    for n_ord in range(2, 5):
        for k in range(n_ord + 1):
            assert l2[k] <= (l2[0] + l2[n_ord]) * slack
