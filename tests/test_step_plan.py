"""Differential test for the step plan of the coordinate loop.

Single steps and block steps read every step's coordinate, implicit
coefficient c and fold from one solvers._StepPlan, with the coefficients
each consumer uses: (c, 1/L_i, z coefficient, eta) for single steps,
(c, kappa, w) for block steps and, without a schedule, 1/L_i alone for
single steps and L_i alone for block steps.
Requests of any size, with any give-backs, must hand out exactly what a
literal loop gives, bit for bit: the sampler's stream drawn in one block,
c <- c rho_k multiplied step by step and reset to 1 below FOLD_BELOW, and
the coefficients from the written formulas.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nucd import solvers
from nucd.geometry import SmoothnessProfile
from nucd.sampling import WeightedSampler

_KINDS = ("strongly convex", "growing", "plain")


def _literal(kind, blocks, prof, p, seed, count, c, rate, s_sq):
    """idx, the coefficients per step as columns ((c, 1/L_i, z coefficient,
    eta) for single steps, (c, kappa, w) for blocks, 1/L_i or for blocks L_i
    alone without a schedule) and {step: fold factor}."""
    idx = WeightedSampler(p, seed).sample_block(count)
    plb = p * prof.l ** prof.beta
    r = 0.0
    if kind == "strongly convex":
        tau, eta = solvers.accel_schedule(rate, prof.sigma_beta)
        rho = (1.0 - tau) ** 2
        r = -(1.0 - tau)
        shrink = 1.0 / (1.0 + eta * prof.sigma_beta)
    rows, folds = [], {}
    for k, i in enumerate(idx.tolist()):
        inv_l = 1.0 / prof.l[i]
        if kind == "plain":
            rows.append(prof.l[i] if blocks else inv_l)
            continue
        if kind == "growing":
            eta, tau = solvers.ns_schedule(k, s_sq)
            rho = 1.0 - tau
            z = eta * (1.0 / plb[i])
        else:
            z = shrink * eta / plb[i]
        c *= rho
        if c < solvers.FOLD_BELOW:
            folds[k] = c
            c = 1.0
        if blocks:
            # u_i moves by kappa g and v_i by w g
            rows.append((c, (r * inv_l - z) / (1.0 - r), (z - inv_l) / (c * (1.0 - r))))
        else:
            rows.append((c, inv_l, z, eta))
    return idx, np.array(rows).T, folds


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_plan_hands_out_the_literal_loop(data):
    kind = data.draw(st.sampled_from(_KINDS))
    blocks = data.draw(st.booleans(), label="blocks")
    n = data.draw(st.integers(1, 6))
    l = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    beta = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    sigma = data.draw(st.floats(0.01, 1.0)) * float(np.min(l ** (1.0 - beta)))
    prof = SmoothnessProfile(l, beta=beta, sigma_beta=sigma)
    w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    p = w / w.sum()
    # rate / sigma near 1 makes tau near 0.62: a fold every ~108 steps
    rate = sigma * data.draw(st.floats(1.0, 50.0))
    s_sq = data.draw(st.floats(0.1, 1e4))
    # a c just above FOLD_BELOW folds at once; below 1 it starts mid-run
    c0 = data.draw(st.sampled_from([1.0, 0.3, 2.0 * solvers.FOLD_BELOW,
                                    1.000001 * solvers.FOLD_BELOW]))
    count = data.draw(st.sampled_from([1, 7, 500, 4096, 5000, 9000]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))

    schedule = {"strongly convex": lambda: solvers._StronglyConvex(prof, p, rate),
                "growing": lambda: solvers._Growing(prof, p, s_sq),
                "plain": lambda: None}[kind]()
    plan = solvers._StepPlan(WeightedSampler(p, seed), count, schedule, l, blocks)
    plan.c = c0
    idx, rows, folds = _literal(kind, blocks, prof, p, seed, count, c0, rate, s_sq)

    k = 0
    while k < count:
        size = data.draw(st.integers(1, min(count - k, 700)), label="size")
        got_idx, fold, coefs = plan.take(size)
        after = [t for t in folds if t > k]
        want = min([size] + [t - k for t in after])
        assert got_idx.size == want
        assert np.array_equal(got_idx, idx[k:k + want])
        assert np.array_equal(coefs.T, rows[..., k:k + want])
        assert (fold is None) if k not in folds else (fold == folds[k])
        back = data.draw(st.integers(0, want - 1), label="given back")
        plan.give_back(back)
        k += want - back
    if kind == "growing":
        # tau_0 = 1: c is 0 after step 0 whatever it started at
        assert folds[0] == 0.0


def test_plain_descent_plans_hold_l_for_blocks_and_its_inverse_for_single_steps():
    """Without a schedule a block plan holds profile.l[idx] itself, which
    block steps write on their triangle's diagonal, and a single-step plan
    still holds 1/l, bit for bit."""
    prof = SmoothnessProfile(np.array([0.3, 7.0, 1e-3, 42.5, 1.0 / 3.0]))
    p = np.full(5, 0.2)
    for blocks, want in ((True, prof.l), (False, 1.0 / prof.l)):
        plan = solvers._StepPlan(WeightedSampler(p, 9), 600, None, prof.l, blocks)
        idx, fold, coefs = plan.take(600)
        assert fold is None and idx.size == 600
        assert np.array_equal(coefs, want[idx])
