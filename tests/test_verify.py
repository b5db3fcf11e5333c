"""The verify suite's checks: drawn first, evaluated in blocked batch kernel calls.

Batching must not turn a check on every item into a check on an
aggregate: a fault in one item of a batch must fail its check.
"""

import numpy as np
import pytest

from sobocurve import metric, verify
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
        if len(out) == 2:  # `_form`'s (values, pieces): G per item
            values = out[0].copy()
            values[i] *= 1.0 + RELATIVE
            return values, out[1]
        e, s, ell, u = out  # `_arc_jet`: the speed and D_s^k h, k >= 1, per item
        s, u = s.copy(), [uk.copy() for uk in u]
        for a in (s, *u[1:]):
            a[i] *= 1.0 + RELATIVE
        return e, s, ell, u

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
        ("exact_discrete_identities", verify, "_arc_jet", 7),  # D_s^k h on curve 7
        ("exact_discrete_identities", verify, "_arc_jet", 20 + 11),  # on curve 11 scaled
        ("exact_discrete_identities", verify, "_arc_jet", 40 + 19),  # speed of shifted curve 19
        ("exact_discrete_identities", verify, "_arc_jet", 60 + 5),  # D_s^2 h on rotated curve 5
    ],
)
def test_one_faulty_item_of_a_batch_fails_its_check(monkeypatch, name, module, kernel, target):
    monkeypatch.setattr(module, kernel, perturbed(getattr(module, kernel), target))
    ok, detail = dict(CHECKS)[name](np.random.default_rng(SEED))
    assert not ok, detail


def test_suite_kernel_calls_hold_at_most_one_block(monkeypatch):
    sizes = []
    form, jet = metric._form, verify._arc_jet

    def recording_form(cfg, grid, samples, h, g=None, *args, **kwargs):
        sizes.append(h[..., 0].size * (1 if g is None else 2))
        return form(cfg, grid, samples, h, g, *args, **kwargs)

    def recording_jet(grid, samples, *args):
        sizes.append(samples[..., 0].size)
        return jet(grid, samples, *args)

    monkeypatch.setattr(metric, "_form", recording_form)
    monkeypatch.setattr(verify, "_arc_jet", recording_jet)
    assert run_suite(SEED)["all_ok"]
    assert len(sizes) > 0
    assert max(sizes) <= metric._BLOCK_POINTS
