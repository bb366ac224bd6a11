"""The JSON front end: loading the fixtures, schema errors, and the
certify / synthesize / simulate commands against the library calls they
stand for."""

import json
import os

import numpy as np
import pytest

from posimp import certify, cli, core, observer, sim

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name + ".json")


LFT_DIMS = ("n", "ncD", "pc", "qc", "ndD", "pd", "qd")
PLANT_DIMS = ("n", "pc", "qc", "pd", "qd")
SWITCHED_DIMS = ("n", "n_modes", "p", "q")


@pytest.mark.parametrize("name, kind, cls, dims", [
    ("stable_toy", "lft", core.LftPositiveSystem, dict(zip(LFT_DIMS, (2, 0, 1, 1, 0, 1, 1)))),
    ("uncertain_impulsive", "lft", core.LftPositiveSystem,
     dict(zip(LFT_DIMS, (2, 2, 1, 1, 0, 0, 1)))),
    ("range_observer_plant", "plant", observer.ObservedPlant,
     dict(zip(PLANT_DIMS, (2, 1, 1, 1, 1)))),
    ("min_observer_plant", "plant", observer.ObservedPlant, dict(zip(PLANT_DIMS, (2, 1, 1, 1, 1)))),
    ("switched_toy", "switched", observer.SwitchedPlant, dict(zip(SWITCHED_DIMS, (2, 2, 1, 1)))),
    ("power_control", "switched", observer.SwitchedPlant, dict(zip(SWITCHED_DIMS, (3, 2, 3, 1)))),
])
def test_load_fixture(name, kind, cls, dims):
    loaded = cli.load(_fixture(name))
    assert loaded.kind == kind
    assert isinstance(loaded.system, cls)
    assert {d: getattr(loaded.system, d) for d in dims} == dims
    assert loaded.constraint is not None


MINIMAL_SYSTEM = {"lft": {"A": [[-1.0]]}, "delay": {"A": [[-1.0]]},
                  "plant": {"A": [[-1.0]]}, "switched": {"A": [[[-1.0]], [[-2.0]]]}}

SYSTEM_KEYS = {
    "lft": "A, Cc, CcD, Cd, CdD, Ec, Ed, Fc, FcD, Fd, FdD, Gc, Gd, Hc, HcD, Hd, HdD, J",
    "delay": "A, Cc, Cd, Ec, Ed, Fc, Fd, Gc, Gd, Hc, Hd, J, h_c, h_d, phi0, "
             "w_c_bounds, w_d_bounds",
    "plant": "A, Ec, Ed, Gc, Gd, J, h_c, h_d, phi0",
    "switched": "A, Ec, Gc, h_c, phi0",
}
OBSERVER_KEYS = {
    "plant": "C_yc, C_yd, F_yc, F_yd, H_yc, H_yd, L_c, L_d, M_c, M_d, history_spread, "
             "w_c_bounds, w_d_bounds",
    "switched": "C_y, F_y, H_y, L, M, history_spread, w_c_bounds",
}


@pytest.mark.parametrize("kind", sorted(SYSTEM_KEYS))
def test_unknown_system_key_lists_the_allowed_keys(kind):
    doc = {"kind": kind, "system": {**MINIMAL_SYSTEM[kind], "Bogus": [[1.0]]}}
    with pytest.raises(cli.SchemaError) as err:
        cli.build(doc)
    assert str(err.value) == f"system: unknown key 'Bogus' (allowed: {SYSTEM_KEYS[kind]})"


@pytest.mark.parametrize("kind", sorted(OBSERVER_KEYS))
def test_unknown_observer_key_lists_the_allowed_keys(kind):
    doc = {"kind": kind, "system": MINIMAL_SYSTEM[kind], "observer": {"Bogus": [[1.0]]}}
    with pytest.raises(cli.SchemaError) as err:
        cli.build(doc)
    assert str(err.value) == f"observer: unknown key 'Bogus' (allowed: {OBSERVER_KEYS[kind]})"


@pytest.mark.parametrize("kind, section, key", [
    ("lft", "system", "J"), ("delay", "system", "Cc"),
    ("plant", "observer", "C_yc"), ("plant", "observer", "M_c"),
])
def test_timer_polynomial_in_a_constant_block_is_a_schema_error(kind, section, key):
    doc = {"kind": kind, "system": dict(MINIMAL_SYSTEM[kind])}
    doc.setdefault(section, {})[key] = [[[0.5]], [[0.1]]]
    with pytest.raises(cli.SchemaError, match=rf"^{section}\.{key}: .*only A, Gc, Ec may"):
        cli.build(doc)


def test_timer_polynomial_error_reaches_the_command_line(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"kind": "lft",
                                "system": {"A": [[-1]], "J": [[[0.5]], [[0.1]]]}}))
    assert cli.main(["certify", str(path)]) == 1
    assert "error: system.J: " in capsys.readouterr().err


def test_timer_polynomial_in_a_timer_block_loads():
    loaded = cli.build({"kind": "lft", "system": {"A": [[[-1.0]], [[0.5]]]}})
    assert loaded.system.A.degree == 1


def test_certify_command_matches_the_library(tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", _fixture("stable_toy"), "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    loaded = cli.load(_fixture("stable_toy"))
    ref = certify.certify_range(loaded.system, loaded.constraint, loaded.scalings,
                                loaded.certify_options)
    assert (res["status"], res["kind"]) == ("feasible", "range")
    assert res["gamma"] == ref.gamma


def test_synthesize_command_matches_the_library(tmp_path):
    out = tmp_path / "syn.json"
    assert cli.main(["synthesize", _fixture("range_observer_plant"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    loaded = cli.load(_fixture("range_observer_plant"))
    ref = observer.synthesize_range(loaded.system, loaded.constraint, loaded.scalings,
                                    loaded.synthesis_options, gain_box=loaded.gain_box)
    assert doc["result"]["status"] == "feasible"
    assert doc["result"]["gamma"] == ref.gamma
    # the result document loads back with the synthesized gains
    again = cli.build(doc)
    assert again.gains.L_c_at(0.2) == pytest.approx(ref.L_c_at(0.2), rel=1e-12)


def test_simulate_command_with_constant_gains(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    assert cli.main(["simulate", _fixture("min_observer_plant"), "--seq", "gen:1",
                     "--horizon", "10", "--out", str(csv)]) == 0
    assert "enclosure: holds at every sample" in capsys.readouterr().out
    assert csv.read_text().splitlines()[0] == "t,x_1,x_2,xminus_1,xminus_2,xplus_1,xplus_2"


@pytest.fixture
def synthesized(tmp_path):
    """The synthesize result document of range_observer_plant, and the
    gains synthesized by the library for the same file."""
    out = tmp_path / "syn.json"
    assert cli.main(["synthesize", _fixture("range_observer_plant"), "--out", str(out)]) == 0
    loaded = cli.load(_fixture("range_observer_plant"))
    ref = observer.synthesize_range(loaded.system, loaded.constraint, loaded.scalings,
                                    loaded.synthesis_options, gain_box=loaded.gain_box)
    return out, ref


def test_simulate_with_reloaded_gains_matches_fresh_gains_bit_for_bit(
        synthesized, tmp_path, monkeypatch):
    out, ref = synthesized
    runs = []
    real = sim.simulate_with_observer

    def spy(plant, gains, seq, **kw):
        runs.append((plant, gains, seq, kw))
        return real(plant, gains, seq, **kw)

    monkeypatch.setattr(sim, "simulate_with_observer", spy)
    csv = tmp_path / "trace.csv"
    assert cli.main(["simulate", str(out), "--seq", "gen:3", "--horizon", "4",
                     "--out", str(csv)]) == 0
    (plant, gains, seq, kw), = runs
    assert isinstance(gains, observer.StoredGains)
    stored, fresh = real(plant, gains, seq, **kw), real(plant, ref, seq, **kw)
    for name in ("t", "x", "xminus", "xplus", "z_c"):
        assert np.array_equal(getattr(stored, name), getattr(fresh, name))
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(data, np.hstack([fresh.t[:, None], fresh.x, fresh.xminus, fresh.xplus]))


@pytest.mark.parametrize("field, edit, message", [
    ("L_d", lambda v: [[1.0, 2.0, 3.0]], "result.gains.L_d: expected shape 2x1, got 1x3"),
    ("X", lambda v: v + [v[0]], "result.gains.X: expected shape 2x21, got 3x21"),
    ("Y_c", lambda v: v + [v[0]], "result.gains.Y_c: expected shape 2x1x21, got 3x1x21"),
    ("nodes", lambda v: v[:-1], "result.gains.X: expected shape 2x20, got 2x21"),
    ("X", lambda v: [[None] * len(v[0])] * 2, "result.gains.X: expected finite numbers"),
])
def test_reloaded_gains_are_checked_against_the_plant(synthesized, field, edit, message):
    out, _ = synthesized
    doc = json.loads(out.read_text())
    doc["result"]["gains"][field] = edit(doc["result"]["gains"][field])
    with pytest.raises(cli.SchemaError) as err:
        cli.build(doc)
    assert str(err.value) == message


def test_certify_command_refuses_reloaded_exact_gains(synthesized, capsys):
    out, _ = synthesized
    assert cli.main(["certify", str(out), "--out", str(out.with_suffix(".cert.json"))]) == 1
    assert "exact observer gain" in capsys.readouterr().err
