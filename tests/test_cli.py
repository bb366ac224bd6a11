"""The JSON front end: loading the fixtures, schema errors, and the
certify / synthesize / simulate commands against the library calls they
stand for."""

import copy
import json
import os

import numpy as np
import pytest

from posimp import certify, cli, core, delay, observer, sim

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


def test_simulate_rejects_an_infinite_horizon(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    assert cli.main(["simulate", _fixture("stable_toy"), "--seq", "gen:1",
                     "--horizon", "inf", "--out", str(csv)]) == 1
    assert capsys.readouterr().err == "error: horizon must be finite, got inf\n"
    assert not csv.exists()


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


# ---------------------------------------------------------------------------
# inline documents; schema errors of dwell blocks and non-finite numbers

STABLE_TOY = {"kind": "lft", "system": {"A": [[-1.0, 0.5], [0.2, -2.0]], "Ec": [[1.0], [0.5]],
                                        "Cc": [[1.0, 1.0]], "J": [[0.5, 0.0], [0.1, 0.4]]}}
DELAY_SYSTEM = {"A": [[-1.0, 0.2], [0.5, -2.0]], "Gc": [[0.1, 0.0], [0.0, 0.1]],
                "Ec": [[0.3], [0.2]], "Cc": [[1.0, 1.0]], "J": [[0.6, 0.1], [0.0, 0.5]],
                "Gd": [[0.05, 0.0], [0.0, 0.05]], "Ed": [[0.1], [0.1]], "Cd": [[1.0, 0.0]],
                "h_c": 1.0, "h_d": 1}
PLANT = {"kind": "plant", "scalings": {"structure": "constant"},
         "system": {"A": [[-1.0, 0.0], [1.0, -2.0]], "Gc": [[0.1, 0.0], [0.0, 0.2]],
                    "Ec": [[0.1], [0.1]], "J": [[0.8, 0.1], [0.1, 0.7]],
                    "Gd": [[0.1, 0.0], [0.0, 0.1]], "Ed": [[0.2], [0.2]], "h_c": 1.0, "h_d": 1},
         "observer": {"C_yc": [[0.0, 1.0]], "F_yc": [[0.03]], "C_yd": [[0.0, 1.0]],
                      "F_yd": [[0.03]], "L_c": [[0.0], [0.5]], "L_d": [[0.1], [0.1]]}}
DWELLS = {
    "range": {"type": "range", "params": {"tmin": 0.2, "tmax": 0.6}},
    "minimum": {"type": "minimum", "params": {"tbar": 0.4}},
    "periodic-range": {"type": "periodic-range",
                       "params": {"tmin": 0.2, "tmax": 0.6, "q": 2, "alpha": 1}},
    "periodic-minimum": {"type": "periodic-minimum",
                         "params": {"tbar": 0.3, "q": 2, "alpha": 1}},
}


@pytest.mark.parametrize("dwell, message", [
    ({"type": "minimum", "params": {}}, "dwell.params.tbar: required for type 'minimum'"),
    (DWELLS["periodic-minimum"],
     "dwell.type: periodic constraints tie the impulse pattern to the delay period and need "
     "a delayed system (kinds delay, plant, switched)"),
    ({"type": "range", "params": {"tmin": 2.0, "tmax": 1.0}},
     "dwell.params: need 0 < tmin <= tmax"),
])
def test_dwell_errors_carry_their_path_once(dwell, message):
    with pytest.raises(cli.SchemaError) as err:
        cli.build({**STABLE_TOY, "dwell": dwell})
    assert str(err.value) == message


def _delay_doc(section: str, key: str, value) -> dict:
    doc = copy.deepcopy({"kind": "delay", "system": DELAY_SYSTEM, "dwell": DWELLS["range"],
                         "solver": {}})
    doc[section][key] = value
    return doc


@pytest.mark.parametrize("section, key, value, message", [
    ("system", "A", [[-1.0, np.nan], [0.5, -2.0]],
     "matrix A row 1, entry 2: expected a finite number, got nan"),
    ("system", "Gc", [[[0.1, 0.0], [0.0, 0.1]], [[0.0, 0.0], [np.inf, 0.0]]],
     "matrix Gc coefficient 2 row 2, entry 1: expected a finite number, got inf"),
    ("system", "phi0", [1.0, -np.inf], "system.phi0 entry 2: expected a finite number, got -inf"),
    ("system", "h_c", np.inf, "system.h_c: expected a finite number, got inf"),
    ("system", "w_c_bounds", [-np.inf, 1.0],
     "system.w_c_bounds lower bound: expected a finite number, got -inf"),
    ("dwell", "params", {"tmin": 0.2, "tmax": np.nan},
     "dwell.params.tmax: expected a finite number, got nan"),
    ("solver", "margin", np.inf, "solver.margin: expected a finite number, got inf"),
    ("solver", "gain_box", [np.nan, 1.0], "solver.gain_box lo: expected a finite number, got nan"),
])
def test_non_finite_numbers_are_schema_errors(section, key, value, message):
    with pytest.raises(cli.SchemaError) as err:
        cli.build(_delay_doc(section, key, value))
    assert str(err.value) == message


def test_non_finite_matrix_entry_reaches_the_command_line(tmp_path, capsys):
    path = tmp_path / "nan.json"
    with open(_fixture("stable_toy")) as f:
        doc = json.load(f)
    doc["system"]["A"][0][0] = np.nan
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    assert cli.main(["check-positivity", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: matrix A row 1, entry 1: expected a finite number, got nan\n"


@pytest.mark.parametrize("box", [[0.0, np.inf], [-np.inf, 2.0]])
def test_one_sided_gain_box_loads(box):
    assert cli.build(_delay_doc("solver", "gain_box", box)).gain_box == tuple(box)


def test_null_scalings_block_certifies_with_the_default_structure(tmp_path):
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(json.dumps({**STABLE_TOY, "scalings": None,
                                "dwell": {"type": "minimum", "params": {"tbar": 0.5}}}))
    assert cli.main(["certify", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scalings"] == "unconstrained"


def test_integer_too_large_for_a_float_reaches_the_command_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    with open(_fixture("uncertain_impulsive")) as f:
        doc = json.load(f)
    doc["dwell"]["params"]["tbar"] = 10 ** 400
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", str(path), "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == ("error: dwell.params.tbar: expected a finite number, "
                                       "got an integer too large for a float\n")


def test_grouped_scalings_without_discrete_channels_certify(tmp_path):
    """uncertain_impulsive has no discrete channel (ndD = 0), so the
    discrete groups, which default to groups_c, are not checked.  Tying
    both continuous entries together leaves no certificate: exit code 2."""
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    with open(_fixture("uncertain_impulsive")) as f:
        doc = json.load(f)
    doc["scalings"] = {"structure": "grouped", "groups_c": [[0, 1]]}
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", str(path), "--out", str(out)]) == 2
    loaded = cli.load(str(path))
    ref = certify.certify_min(loaded.system, loaded.constraint,
                              core.ScalingStructure.grouped([[0, 1]]), loaded.certify_options)
    assert isinstance(ref, certify.Infeasible)
    result = json.loads(out.read_text())
    assert (result["status"], result["scalings"]) == ("infeasible", "grouped")


UI_DISCRETE = {"Gd": [[0.5], [0.0]], "CdD": [[0.0, 1.0]]}  # one discrete channel


@pytest.mark.parametrize("extra, scalings, message", [
    ({}, {"groups_c": [[0, 1]], "groups_d": [[0]]},
     "scalings.groups_d: groups must partition range(0), got ((0,),)"),
    ({}, {"groups_c": [[0]]}, "scalings.groups_c: groups must partition range(2), got ((0,),)"),
    (UI_DISCRETE, {"groups_c": [[0, 1]]},
     "scalings.groups_c: groups must partition range(1), got ((0, 1),)"),
    (UI_DISCRETE, {"groups_c": [[0, 1]], "groups_d": [[0, 1]]},
     "scalings.groups_d: groups must partition range(1), got ((0, 1),)"),
])
def test_grouped_scalings_name_the_field_that_fails(extra, scalings, message):
    with open(_fixture("uncertain_impulsive")) as f:
        doc = json.load(f)
    doc["system"].update(extra)
    doc["scalings"] = {"structure": "grouped", **scalings}
    with pytest.raises(cli.SchemaError) as err:
        cli.build(doc)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# every command against the library call that answers it

INLINE = {f"{kind} {dwell}": {**base, "dwell": DWELLS[dwell]}
          for kind, base in (("delay", {"kind": "delay", "system": DELAY_SYSTEM}),
                             ("plant", PLANT))
          for dwell in DWELLS}

# the library call behind certify, certify --free-scalings, synthesize and
# every sweep point; None where the command refuses the kind
COMMANDS = ("certify", "certify-free", "synthesize", "sweep")
ANSWERS = {
    "stable_toy": ("certify_range", "certify_range_free", None, "certify_min"),
    "uncertain_impulsive": ("certify_min", "certify_min_free", None, "certify_min"),
    "range_observer_plant": (None, None, "synthesize_range", "synthesize_min"),
    "min_observer_plant": ("certify_delay_min",) * 2 + ("synthesize_min",) * 2,
    "switched_toy": (None, None, "synthesize_switched", "synthesize_switched"),
    "power_control": (None, None, "synthesize_switched", "synthesize_switched"),
    "delay range": ("certify_delay_range",) * 2 + (None, "certify_delay_min"),
    "delay minimum": ("certify_delay_min",) * 2 + (None, "certify_delay_min"),
    "delay periodic-range": ("certify_delay_range",) * 2 + (None, "certify_delay_min"),
    "delay periodic-minimum": ("certify_delay_min",) * 2 + (None, "certify_delay_min"),
    "plant range": ("certify_delay_range",) * 2 + ("synthesize_range", "synthesize_min"),
    "plant minimum": ("certify_delay_min",) * 2 + ("synthesize_min",) * 2,
    "plant periodic-range": ("certify_delay_range",) * 2 + ("synthesize_range", "synthesize_min"),
    "plant periodic-minimum": ("certify_delay_min",) * 2 + ("synthesize_min",) * 2,
}
SWEEP = (0.3, 1.2, 3)


def _library(call: str, loaded, constraint, free: bool):
    """The named library call on a loaded document, and the scalings tag
    its result document records."""
    if call.startswith("certify_delay"):
        target = loaded.system if loaded.kind == "delay" else \
            observer.error_system(loaded.system, loaded.gains)
        scal = delay.UNCONSTRAINED_PERIODIC if free else loaded.scalings
        return getattr(delay, call)(target, constraint, scal, loaded.certify_options), scal
    if call.endswith("_free"):
        return getattr(certify, call)(loaded.system, constraint, loaded.certify_options), "free"
    if call.startswith("certify"):  # the lft fixtures declare no scalings
        return getattr(certify, call)(loaded.system, constraint, loaded.scalings,
                                      loaded.certify_options), "unconstrained"
    return getattr(observer, call)(loaded.system, constraint, loaded.scalings,
                                   loaded.synthesis_options, gain_box=loaded.gain_box), \
        loaded.scalings


@pytest.mark.parametrize("name, command", [(n, c) for n in ANSWERS for c in COMMANDS])
def test_command_answers_like_the_library(name, command, tmp_path, capsys):
    if name in INLINE:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(INLINE[name]))
    else:
        path = _fixture(name)
    call = ANSWERS[name][COMMANDS.index(command)]
    out = tmp_path / "out"
    argv = {"certify": ["certify", str(path)],
            "certify-free": ["certify", str(path), "--free-scalings"],
            "synthesize": ["synthesize", str(path)],
            "sweep": ["sweep", str(path), "--param", "Tbar", "--from", str(SWEEP[0]),
                      "--to", str(SWEEP[1]), "--steps", str(SWEEP[2])]}[command]
    code = cli.main(argv + ["--out", str(out)])
    if call is None:
        assert code == 1 and capsys.readouterr().err.startswith("error: ")
        return
    loaded = cli.load(str(path))
    if command == "sweep":
        assert code == 0
        expected = []
        for t in np.linspace(*SWEEP):
            res, _ = _library(call, loaded, core.Minimum(float(t)), False)
            expected.append("INF" if isinstance(res, certify.Infeasible) else
                            f"{(res[0] if isinstance(res, list) else res).gamma:.12g}")
        assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == expected
        return
    res, scal = _library(call, loaded, loaded.constraint, command == "certify-free")
    doc = json.loads(out.read_text())
    result = doc["result"] if command == "synthesize" else doc
    first = res[0] if isinstance(res, list) else res
    status = "infeasible" if isinstance(res, certify.Infeasible) else "feasible"
    assert code == (2 if status == "infeasible" else 0)
    assert (result["status"], result["kind"], result["scalings"]) == (status, first.kind, scal)
    assert result.get("gamma") == getattr(first, "gamma", None)
