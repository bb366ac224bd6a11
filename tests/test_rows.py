"""The row emitter against a plain loop over the same terms, and the dumps
of certificate and synthesis programs against the values the per-row
emitters they replaced produced."""

import hashlib

import numpy as np
import pytest

from systems import MIN_OBSERVER, POWER_CONTROL, RANGE_OBSERVER, _switched_plant, \
    min_observer_plant, observed_plant, power_control, range_observer_plant, stable_toy, \
    uncertain_impulsive
from test_lp import _stored_rows
from posimp import certify, core, delay, lp, observer, rows


def _loop_rows(p, prefix, suffixes, groups, rel):
    """What rows.emit adds, one (variable, product) pair at a time: zero
    coefficients and zero weights are skipped, products are handed to
    add_row in term order, then family order."""
    for s, suffix in enumerate(suffixes):
        for cols, terms, rhs, keep in groups:
            for j, col in enumerate(cols):
                if keep is not None and not keep[s, j]:
                    continue
                pairs = []
                for v, w, c in terms:
                    ws, cs = w[min(s, len(w) - 1)], c[min(s, len(c) - 1)]
                    for r in range(v.shape[0]):
                        if cs[r, j] != 0.0:
                            pairs += [(v[r, k], ws[k] * cs[r, j])
                                      for k in range(v.shape[1]) if ws[k] != 0.0]
                p.add_row(f"{prefix}{col}{suffix}", pairs, rel, rhs[j])


def _random_groups(rng, n_vars, S):
    groups = []
    for _ in range(3):
        ncols = int(rng.integers(0, 4))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            m, K = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            # few distinct variables, so rows repeat variables within and across terms
            v = rng.integers(0, n_vars, size=(m, K))
            w = rng.choice([0.0, 0.25, 1.0, -0.5, 1 / 3], size=(int(rng.choice([1, S])), K))
            c = rng.choice([0.0, 1.0, -1.0, 0.1, 3.0], size=(int(rng.choice([1, S])), m, ncols))
            terms.append((v, w, c))
        keep = rng.random((S, ncols)) < 0.8 if rng.random() < 0.5 else None
        groups.append(([f"g{len(groups)}[{j}]" for j in range(ncols)], terms,
                       rng.normal(size=ncols), keep))
    return groups


@pytest.mark.parametrize("seed", range(20))
def test_emit_matches_a_loop_over_the_terms(seed):
    rng = np.random.default_rng(seed)
    S = int(rng.integers(1, 4))
    groups = _random_groups(rng, 4, S)
    got, want = lp.LinearProgram(), lp.LinearProgram()
    for p in (got, want):
        for j in range(4):
            p.add_var(f"v{j}")
    rows.emit(got, "t:", [f"@{s}" for s in range(S)], groups, lp.GE)
    _loop_rows(want, "t:", [f"@{s}" for s in range(S)], groups, lp.GE)
    assert lp.dump(got) == lp.dump(want)
    assert _stored_rows(got) == _stored_rows(want)


def _timer_system():
    A = core.TimerMatrixFunction([[[-1.0]], [[2.0]]])
    return core.LftPositiveSystem.build(A=A, J=[[0.9]], Ec=[[1.0]], Cc=[[1.0]])


def _timer_plant(**data):
    """A measured plant whose flow matrix A(tau) = A + tau A_1 depends on the timer."""
    A = np.asarray(data["A"], dtype=float)
    return observed_plant(dict(data, A=core.TimerMatrixFunction([A, [[0.0, 0.5], [0.2, 0.0]]])))


def _timer_switched():
    """The power-control plant with a timer-dependent coupling in mode 0 only."""
    A0 = core.TimerMatrixFunction([-np.eye(3), 0.3 * (np.ones((3, 3)) - np.eye(3))])
    return _switched_plant(dict(POWER_CONTROL, A=[A0, -np.eye(3)]))


def _error(plant, data):
    return observer.error_system(plant, data["L_c"], data["L_d"])


CERT = certify.CertifyOptions(n_nodes=7)
SYN = observer.SynthesisOptions(n_nodes=5)

# sha256 prefixes of lp.dump as the per-row emitters and per-row storage
# produced them; a deliberate change of the rows changes these
DUMPS = {
    "certify_min_grouped": ("e5a8035253f72a52", lambda: certify.certify_min(
        uncertain_impulsive(), core.Minimum(2.0), core.ScalingStructure.grouped([[0, 1]]), CERT)),
    "certify_min_free": ("e4e0b9ad215dfab3", lambda: certify.certify_min_free(
        uncertain_impulsive(), core.Minimum(2.0), CERT)),
    "certify_range_free": ("b19032816eb93258", lambda: certify.certify_range_free(
        uncertain_impulsive(), core.Range(1.5, 2.0), CERT)),
    "certify_range": ("b526d7d2c878904f", lambda: certify.certify_range(
        stable_toy(), core.Range(0.5, 1.5), options=CERT)),
    "certify_min_timer": ("d965642aebd41848", lambda: certify.certify_min(
        _timer_system(), core.Minimum(0.3), options=CERT)),
    "min_synthesis": ("dc94e10b3f87537c", lambda: observer.synthesize_min(
        min_observer_plant(), core.Minimum(1.0), observer.CONSTANT, SYN)),
    "range_synthesis_periodic": ("0cdc780815536fc7", lambda: observer.synthesize_range(
        range_observer_plant(), core.Range(0.3, 0.5), observer.UNCONSTRAINED_PERIODIC, SYN)),
    "switched_synthesis": ("70536cabac692fb4", lambda: observer.synthesize_switched(
        power_control(), core.Minimum(0.2), observer.CONSTANT, SYN)),
    # gain boxes: lo = 0 leaves X out of the lower rows, hi = inf drops the upper rows
    "range_synthesis_box": ("1df8bb8654838bbb", lambda: observer.synthesize_range(
        range_observer_plant(), core.Range(0.3, 0.5), observer.CONSTANT, SYN,
        gain_box=(0.0, np.inf))),
    "switched_synthesis_box": ("0913f57dbfbf6343", lambda: observer.synthesize_switched(
        power_control(), core.Minimum(0.2), observer.CONSTANT, SYN, gain_box=(-1.0, 2.0))),
    # timer-dependent plants: positivity and flow rows at the segment midpoints too,
    # as the per-segment sampling plan and its deduplicated tau values placed them
    "range_synthesis_timer": ("f29cdff6d1cb59df", lambda: observer.synthesize_range(
        _timer_plant(**RANGE_OBSERVER), core.Range(0.3, 0.5), observer.CONSTANT, SYN)),
    "min_synthesis_timer": ("16512d878b945535", lambda: observer.synthesize_min(
        _timer_plant(**dict(RANGE_OBSERVER, A=[[-2.0, 0.5], [0.3, -3.0]],
                            J=[[0.5, 0.1], [0.0, 0.5]])),
        core.Minimum(0.5), observer.CONSTANT, SYN)),
    "switched_synthesis_timer": ("918dd62b24190909", lambda: observer.synthesize_switched(
        _timer_switched(), core.Minimum(0.2), observer.CONSTANT, SYN)),
    # delay certificates of the closed observer errors under their reference gains
    "delay_range_constant": ("7980595d1f039413", lambda: delay.certify_delay_range(
        _error(range_observer_plant(), RANGE_OBSERVER), core.Range(0.3, 0.5), delay.CONSTANT,
        CERT)),
    "delay_min_constant": ("1b24f5e469e06d3d", lambda: delay.certify_delay_min(
        _error(min_observer_plant(), MIN_OBSERVER), core.Minimum(1.0), delay.CONSTANT, CERT)),
    "delay_min_periodic": ("66ac9864abcbae41", lambda: delay.certify_delay_min(
        _error(min_observer_plant(), MIN_OBSERVER),
        core.PeriodicMinimum(5.0, q=1, alpha=1, h_c=5.0), delay.UNCONSTRAINED_PERIODIC, CERT)),
}


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_program_dump_is_unchanged(name, monkeypatch):
    digest, run = DUMPS[name]
    seen = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda p, **kw: seen.append(p) or solve(p, **kw))
    out = run()
    assert hashlib.sha256(lp.dump(seen[-1]).encode()).hexdigest()[:16] == digest
    if name.endswith("_timer"):  # midpoint rows sample the flow; they prove nothing
        assert all(a.sound is False for a in (out if isinstance(out, list) else [out]))
