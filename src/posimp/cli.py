"""Command-line front end: JSON system files in, certificates, gains and
trajectory CSVs out.

Subcommands
-----------
check-positivity FILE
    Internal-positivity report (exit 0 when positive, 2 when not).
certify FILE [--free-scalings] [--out JSON]
    Stability / hybrid-gain certificate for the file's dwell-time
    constraint; ``--free-scalings`` picks the richest scaling class the
    kind admits (analytic elimination for ``lft``, timer-dependent
    multipliers restricted to period-compatible sequences otherwise).
certify FILE / synthesize FILE [--out JSON]
    Write a machine-readable result document next to the human summary.
    The synthesize result embeds the input document, so feeding it back
    to ``simulate`` closes the loop with the stored gains - no
    re-synthesis happens.
simulate FILE --seq SPEC --out CSV [--horizon H] [--step S] [--input-seed N]
    Hybrid trajectory.  SPEC is either ``gen:SEED`` (a random admissible
    dwell sequence drawn from the file's dwell block; disturbances are
    drawn from the declared bounds with the same seed) or a JSON file
    ``{"dwells": [...], "modes": [...], "repeats": false}``.  Plants with
    gains run together with their interval observer and the CSV carries
    the framer columns; ``lft`` systems are simulated at their worst-case
    channel closure.
sweep FILE --param Tbar --from A --to B --steps K --out CSV
    Re-certify (kinds ``lft``/``delay``) or re-synthesize (kinds
    ``plant``/``switched``) on a grid of minimum dwell times, emitting
    ``Tbar,gamma`` rows with ``INF`` marking infeasible points.

System files are JSON documents::

    {
      "kind": "lft" | "delay" | "switched" | "plant",
      "system":   { ... dynamics blocks as nested arrays ... },
      "observer": { ... measurement blocks, error weights, bounds ... },
      "dwell":    {"type": "minimum", "params": {"tbar": 1.0}},
      "scalings": {"structure": "constant"},
      "solver":   {"n_nodes": 21, "gain_box": [-10, 10]}
    }

A matrix is a nested array of numbers; blocks that may depend on the
timer (``A``, ``Gc``, ``Ec``) may instead be an array of coefficient
matrices ``[M0, M1, ...]`` meaning ``M0 + tau M1 + ...``; every other
block must be constant.  The blocks of each kind are those of the tables
``BLOCKS``, ``MEASUREMENTS`` and ``WEIGHTS`` in :mod:`posimp.core`.  For
switched systems the dynamics and measurement blocks are per-mode lists
of such entries.  Schema
violations are reported with their path (``matrix A row 2: expected 2
entries``) and exit with status 1; infeasibility exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import certify, core, delay, lp, observer, pwl, sim

__all__ = ["SchemaError", "load_document", "build", "main"]


# ---------------------------------------------------------------------------
# schema plumbing


class SchemaError(ValueError):
    """A system file violated the documented schema; the message carries
    the path of the offending entry."""


_KINDS = ("lft", "delay", "switched", "plant")

_TOP_KEYS = {"kind", "description", "system", "observer", "dwell",
             "scalings", "solver", "result"}

_CONTAINERS = {"lft": core.LftPositiveSystem, "delay": delay.DelaySystem,
               "plant": observer.ObservedPlant, "switched": observer.SwitchedPlant}

_SYSTEM_KEYS = {kind: {b.name for b in table} for kind, table in core.BLOCKS.items()}
_SYSTEM_KEYS["delay"] |= {"h_c", "h_d", "phi0", "w_c_bounds", "w_d_bounds"}
_SYSTEM_KEYS["plant"] |= {"h_c", "h_d", "phi0"}
_SYSTEM_KEYS["switched"] |= {"h_c", "phi0"}

_OBSERVER_KEYS = {kind: {b.name for b in core.MEASUREMENTS[kind] + core.WEIGHTS[kind]}
                  for kind in core.MEASUREMENTS}
_OBSERVER_KEYS["plant"] |= {"w_c_bounds", "w_d_bounds", "history_spread", "L_c", "L_d"}
_OBSERVER_KEYS["switched"] |= {"w_c_bounds", "history_spread", "L"}

_DWELL_TYPES = ("range", "minimum", "periodic-range", "periodic-minimum")


def _check_keys(d: dict, allowed: set, path: str) -> None:
    for k in d:
        if k not in allowed:
            raise SchemaError(
                f"{path}: unknown key {k!r} (allowed: {', '.join(sorted(allowed))})")


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    return v


def _vector(v, name: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{name}: expected a non-empty array of numbers")
    return np.array([_number(x, f"{name} entry {j + 1}") for j, x in enumerate(v)])


def _matrix2d(v, name: str) -> list:
    """Rectangular matrix with 1-based row/entry positions in messages."""
    if not isinstance(v, list) or not v:
        raise SchemaError(f"matrix {name}: expected a non-empty nested array")
    first = v[0]
    if not isinstance(first, list):
        raise SchemaError(f"matrix {name} row 1: expected an array of numbers")
    width = len(first)
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, list):
            raise SchemaError(f"matrix {name} row {i + 1}: expected an array of numbers")
        if len(row) != width:
            plural = "entry" if width == 1 else "entries"
            raise SchemaError(f"matrix {name} row {i + 1}: expected {width} {plural}")
        rows.append([_number(x, f"matrix {name} row {i + 1}, entry {j + 1}")
                     for j, x in enumerate(row)])
    return rows


def _shaped(M: np.ndarray, shape: tuple, path: str) -> np.ndarray:
    if M.shape != shape:
        raise SchemaError(f"{path}: expected shape {'x'.join(map(str, shape))}, "
                          f"got {'x'.join(map(str, M.shape))}")
    return M


def _depth(v) -> int:
    d = 0
    while isinstance(v, list):
        d += 1
        if not v:
            break
        v = v[0]
    return d


def _block(v, name: str):
    """Constant matrix (depth 2) or timer polynomial (depth 3,
    coefficient matrices of one shared shape)."""
    d = _depth(v)
    if d == 2:
        return _matrix2d(v, name)
    if d == 3:
        coeffs = [_matrix2d(m, f"{name} coefficient {k + 1}") for k, m in enumerate(v)]
        shape = (len(coeffs[0]), len(coeffs[0][0]))
        for k, m in enumerate(coeffs):
            if (len(m), len(m[0])) != shape:
                raise SchemaError(
                    f"matrix {name} coefficient {k + 1}: expected shape "
                    f"{shape[0]}x{shape[1]} like coefficient 1")
        return core.TimerMatrixFunction(coeffs)
    raise SchemaError(f"matrix {name}: expected a nested array of depth 2 "
                      f"(constant) or 3 (timer coefficients), got depth {d}")


def _mode_blocks(v, name: str, n_modes: int | None) -> list:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{name}: expected one block per mode")
    if n_modes is not None and len(v) != n_modes:
        raise SchemaError(f"{name}: expected {n_modes} per-mode blocks, got {len(v)}")
    return [_block(m, f"{name}[{i}]") for i, m in enumerate(v)]


def _bounds(v, width: int, path: str):
    """[lo, hi] with scalar or vector sides -> (lo, hi) arrays of width."""
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError(f"{path}: expected [lower, upper]")

    def side(x, which):
        if isinstance(x, list):
            arr = _vector(x, f"{path} {which}")
        else:
            arr = np.full(max(width, 1), _number(x, f"{path} {which}"))
        if arr.size != width:
            plural = "entry" if width == 1 else "entries"
            raise SchemaError(f"{path} {which}: expected {width} {plural}, "
                              f"got {arr.size}")
        return arr

    lo, hi = side(v[0], "lower bound"), side(v[1], "upper bound")
    if np.any(lo > hi):
        raise SchemaError(f"{path}: lower bound exceeds upper bound")
    return lo, hi


# ---------------------------------------------------------------------------
# document loading


@dataclass
class LoadedSystem:
    """A parsed and validated system file, ready for the subcommands."""
    kind: str
    doc: dict
    system: object               # built system / plant object
    constraint: object | None    # dwell-time constraint, when declared
    scalings: object             # ScalingStructure (lft) or scaling tag (rest)
    certify_options: certify.CertifyOptions
    synthesis_options: observer.SynthesisOptions
    gain_box: tuple | None
    gains: object | None         # stored or constant observer gains
    phi0: np.ndarray | None
    spread: np.ndarray | None
    w_c_bounds: tuple | None     # (lo, hi) arrays
    w_d_bounds: tuple | None


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return doc


def _wrap_build(fn, path: str):
    try:
        return fn()
    except ValueError as e:
        raise SchemaError(f"{path}: {e}")


def _build_system(kind: str, system: dict, obs: dict):
    """The container of ``kind`` from the blocks of its tables in the
    system and observer sections, plus h_c / h_d."""
    if "A" not in system:
        raise SchemaError("system.A: required")
    A = system["A"]
    n_modes = len(A) if kind == "switched" and isinstance(A, list) else None
    timer = ", ".join(b.name for b in core.BLOCKS[kind] if b.timer)
    kwargs = {}
    for where, section, table, per_mode in (
            ("system", system, core.BLOCKS[kind], n_modes),
            ("observer", obs, core.MEASUREMENTS.get(kind, ()), n_modes),
            ("observer", obs, core.WEIGHTS.get(kind, ()), None)):
        for b in table:
            if b.name not in section:
                continue
            v = section[b.name]
            mats = _mode_blocks(v, b.name, per_mode) if per_mode else [_block(v, b.name)]
            if not b.timer and any(isinstance(m, core.TimerMatrixFunction) for m in mats):
                raise SchemaError(f"{where}.{b.name}: expected a constant matrix; only "
                                  f"{timer} may be timer polynomials")
            kwargs[b.name] = mats if per_mode else mats[0]
    if "h_c" in system:
        kwargs["h_c"] = _number(system["h_c"], "system.h_c")
    if "h_d" in system:
        kwargs["h_d"] = _integer(system["h_d"], "system.h_d")
    return _wrap_build(lambda: _CONTAINERS[kind].build(**kwargs), "system")


def _build_constraint(dwell: dict, h_c: float | None):
    if not isinstance(dwell, dict):
        raise SchemaError("dwell: expected an object {type, params}")
    _check_keys(dwell, {"type", "params"}, "dwell")
    kind = dwell.get("type")
    if kind not in _DWELL_TYPES:
        raise SchemaError(f"dwell.type: expected one of {', '.join(_DWELL_TYPES)}, "
                          f"got {kind!r}")
    params = dwell.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("dwell.params: expected an object")

    def need(keys):
        _check_keys(params, set(keys), "dwell.params")
        out = []
        for k in keys:
            if k not in params:
                raise SchemaError(f"dwell.params.{k}: required for type {kind!r}")
            pick = _integer if k in ("q", "alpha") else _number
            out.append(pick(params[k], f"dwell.params.{k}"))
        return out

    try:
        if kind == "range":
            tmin, tmax = need(["tmin", "tmax"])
            return core.Range(tmin, tmax)
        if kind == "minimum":
            (tbar,) = need(["tbar"])
            return core.Minimum(tbar)
        if h_c is None:
            raise SchemaError(
                "dwell.type: periodic constraints tie the impulse pattern to "
                "the delay period and need a delayed system (kinds delay, "
                "plant, switched)")
        if kind == "periodic-range":
            tmin, tmax, q, alpha = need(["tmin", "tmax", "q", "alpha"])
            return core.PeriodicRange(tmin, tmax, q=q, alpha=alpha, h_c=h_c)
        tbar, q, alpha = need(["tbar", "q", "alpha"])
        return core.PeriodicMinimum(tbar, q=q, alpha=alpha, h_c=h_c)
    except ValueError as e:
        raise SchemaError(f"dwell.params: {e}")


_FREE = "free"


def _build_scalings(block: dict | None, kind: str):
    """For ``lft`` a ScalingStructure or the tag "free"; otherwise one of
    the delay scaling tags ("constant" / "unconstrained-periodic")."""
    structure = "unconstrained" if kind == "lft" else delay.CONSTANT
    groups_c = groups_d = None
    if block is not None:
        if not isinstance(block, dict):
            raise SchemaError("scalings: expected an object")
        _check_keys(block, {"structure", "groups_c", "groups_d"}, "scalings")
        structure = block.get("structure", structure)
        groups_c = block.get("groups_c")
        groups_d = block.get("groups_d")
    if kind == "lft":
        if structure == "constant":
            return core.ScalingStructure.constant()
        if structure == "unconstrained":
            return core.ScalingStructure.unconstrained()
        if structure == _FREE:
            return _FREE
        if structure == "grouped":
            if groups_c is None:
                raise SchemaError("scalings.groups_c: required for structure 'grouped'")
            try:
                return core.ScalingStructure.grouped(groups_c, groups_d)
            except (TypeError, ValueError) as e:
                raise SchemaError(f"scalings.groups_c: {e}")
        raise SchemaError(
            "scalings.structure: expected one of constant, unconstrained, "
            f"grouped, free for kind 'lft', got {structure!r}")
    if structure == _FREE:
        structure = delay.UNCONSTRAINED_PERIODIC
    if structure in (delay.CONSTANT, delay.UNCONSTRAINED_PERIODIC):
        return structure
    raise SchemaError(
        "scalings.structure: expected one of constant, "
        f"unconstrained-periodic, free for kind {kind!r}, got {structure!r}")


def _build_solver(block: dict | None):
    fields = {}
    gain_box = None
    if block is not None:
        if not isinstance(block, dict):
            raise SchemaError("solver: expected an object")
        allowed = {"n_nodes", "margin", "eps_min", "feastol", "x_min",
                   "alpha_max", "gain_box"}
        _check_keys(block, allowed, "solver")
        for key in allowed - {"gain_box", "n_nodes"}:
            if key in block:
                fields[key] = _number(block[key], f"solver.{key}")
        if "n_nodes" in block:
            fields["n_nodes"] = _integer(block["n_nodes"], "solver.n_nodes")
        if "gain_box" in block:
            box = block["gain_box"]
            if not isinstance(box, list) or len(box) != 2:
                raise SchemaError("solver.gain_box: expected [lo, hi]")
            gain_box = (_number(box[0], "solver.gain_box lo"),
                        _number(box[1], "solver.gain_box hi"))
            if gain_box[0] > gain_box[1]:
                raise SchemaError("solver.gain_box: lo exceeds hi")
    cert_fields = {k: v for k, v in fields.items()
                   if k in ("n_nodes", "margin", "eps_min", "feastol")}
    copts = _wrap_build(lambda: certify.CertifyOptions(**cert_fields), "solver")
    sopts = _wrap_build(lambda: observer.SynthesisOptions(**fields), "solver")
    return copts, sopts, gain_box


def _load_result_gains(result: dict, kind: str, built):
    """The stored gains of a feasible ``synthesize`` result, shape-checked
    against the plant; None for any other result."""
    if not isinstance(result, dict) or result.get("status") != "feasible":
        return None
    gains = result.get("gains")
    if gains is None:
        return None
    n = built.n
    q, q_d = (built.q, 0) if kind == "switched" else (built.qc, built.qd)

    def array(g, key, path, shape=None):
        try:
            v = np.asarray(g[key], dtype=float)
        except KeyError:
            raise SchemaError(f"{path}.{key}: required")
        except (TypeError, ValueError):
            raise SchemaError(f"{path}.{key}: expected a rectangular array of numbers")
        if not np.all(np.isfinite(v)):
            raise SchemaError(f"{path}.{key}: expected finite numbers")
        return v if shape is None else _shaped(v, shape, f"{path}.{key}")

    def one(g, path):
        if not isinstance(g, dict):
            raise SchemaError(f"{path}: expected an object")
        nodes = array(g, "nodes", path)
        if nodes.ndim != 1:
            raise SchemaError(f"{path}.nodes: expected an array of numbers")
        X, Y_c = array(g, "X", path, (n, nodes.size)), array(g, "Y_c", path, (n, q, nodes.size))
        L_d = None if g.get("L_d") is None else array(g, "L_d", path, (n, q_d))
        return _wrap_build(lambda: observer.StoredGains(
            pwl.PwlVector(nodes, X), pwl.PwlMatrix(nodes, Y_c), L_d), f"{path}.nodes")

    if kind == "switched":
        modes = gains.get("modes") if isinstance(gains, dict) else None
        if not isinstance(modes, list) or not modes:
            raise SchemaError("result.gains.modes: expected a non-empty array")
        return [one(g, f"result.gains.modes[{i}]") for i, g in enumerate(modes)]
    return one(gains, "result.gains")


def build(doc: dict) -> LoadedSystem:
    """Validate a parsed document and construct the library objects."""
    _check_keys(doc, _TOP_KEYS, "top level")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(f"kind: expected one of {', '.join(_KINDS)}, got {kind!r}")
    system = doc.get("system")
    if not isinstance(system, dict):
        raise SchemaError("system: expected an object with the dynamics blocks")
    _check_keys(system, _SYSTEM_KEYS[kind], "system")

    obs = doc.get("observer")
    if obs is not None and kind not in ("plant", "switched"):
        raise SchemaError(f"observer: only kinds plant and switched take an "
                          f"observer block, not {kind!r}")
    obs = obs if isinstance(obs, dict) else {}
    if kind in ("plant", "switched"):
        _check_keys(obs, _OBSERVER_KEYS[kind], "observer")

    built = _build_system(kind, system, obs)

    h_c = getattr(built, "h_c", None)
    constraint = None
    if "dwell" in doc:
        constraint = _build_constraint(doc["dwell"], h_c)

    scalings = _build_scalings(doc.get("scalings"), kind)
    if isinstance(scalings, core.ScalingStructure):
        for chan, size in (("continuous", built.ncD), ("discrete", built.ndD)):
            spec = getattr(scalings, chan)
            if isinstance(spec, tuple) and spec[0] == "grouped":
                _wrap_build(lambda: core.validate_partition(spec[1], size),
                            f"scalings.groups_{chan[0]}")

    copts, sopts, gain_box = _build_solver(doc.get("solver"))

    # initial history and disturbance bounds -----------------------------
    phi0 = spread = w_c_bounds = w_d_bounds = None
    src = system if kind == "delay" else obs
    if "phi0" in system and kind != "lft":
        phi0 = _vector(system["phi0"], "system.phi0")
        if phi0.size != built.n:
            raise SchemaError(f"system.phi0: expected {built.n} entries, got {phi0.size}")
    if "history_spread" in obs:
        v = obs["history_spread"]
        spread = (_vector(v, "observer.history_spread") if isinstance(v, list)
                  else np.full(built.n, _number(v, "observer.history_spread")))
        if spread.size != built.n or np.any(spread < 0):
            raise SchemaError("observer.history_spread: expected "
                              f"{built.n} nonnegative entries")
    if "w_c_bounds" in src:
        width = built.p if kind == "switched" else built.pc
        w_c_bounds = _bounds(src["w_c_bounds"], width,
                             ("system" if kind == "delay" else "observer")
                             + ".w_c_bounds")
    if "w_d_bounds" in src and kind != "switched":
        w_d_bounds = _bounds(src["w_d_bounds"], built.pd,
                             ("system" if kind == "delay" else "observer")
                             + ".w_d_bounds")

    # gains: stored synthesis result wins over constant observer gains ---
    gains = None
    if "result" in doc:
        gains = _load_result_gains(doc["result"], kind, built)
    if gains is None and kind == "plant" and ("L_c" in obs or "L_d" in obs):
        gains = tuple(
            _shaped(np.asarray(_matrix2d(obs[k], k), dtype=float), (built.n, q), f"observer.{k}")
            if k in obs else np.zeros((built.n, q))
            for k, q in (("L_c", built.qc), ("L_d", built.qd)))
    if gains is None and kind == "switched" and "L" in obs:
        raw = obs["L"]
        if _depth(raw) == 3:
            mats = _mode_blocks(raw, "L", built.n_modes)
        else:
            mats = [_matrix2d(raw, "L")] * built.n_modes
        gains = [_shaped(np.asarray(m, dtype=float), (built.n, built.q), f"observer.L[{i}]")
                 for i, m in enumerate(mats)]

    return LoadedSystem(kind=kind, doc=doc, system=built, constraint=constraint,
                        scalings=scalings, certify_options=copts,
                        synthesis_options=sopts, gain_box=gain_box, gains=gains,
                        phi0=phi0, spread=spread, w_c_bounds=w_c_bounds,
                        w_d_bounds=w_d_bounds)


def load(path: str) -> LoadedSystem:
    return build(load_document(path))


# ---------------------------------------------------------------------------
# result documents


def _result_path(input_path: str, flag: str | None) -> str:
    if flag:
        return flag
    stem = input_path[:-5] if input_path.endswith(".json") else input_path
    return stem + ".result.json"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _gains_payload(res: observer.ObserverGains) -> dict:
    return {
        "nodes": res.X.nodes.tolist(),
        "X": res.X.values.tolist(),
        "Y_c": res.Y_c.values.tolist(),
        "L_c": res.L_c.values.tolist(),
        "L_d": None if res.L_d is None else res.L_d.tolist(),
    }


def _fmt_matrix(M: np.ndarray) -> str:
    return np.array2string(np.asarray(M), precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_positivity(args) -> int:
    loaded = load(args.file)
    sysv = loaded.system
    if loaded.kind == "lft":
        targets = [("", sysv)]
    elif loaded.kind == "switched":
        targets = [(f"mode {i}: ", core.LftPositiveSystem.build(
            A=sysv.A[i], Gc=sysv.Gc[i], Ec=sysv.Ec[i])) for i in range(sysv.n_modes)]
    else:  # the blocks of delay systems and plants are blocks of lft systems too
        targets = [("", core.LftPositiveSystem.build(
            **{b.name: getattr(sysv, b.name) for b in core.BLOCKS[loaded.kind]}))]

    c = loaded.constraint
    horizon = getattr(c, "tmax", None) or getattr(c, "tbar", None) \
        or getattr(sysv, "h_c", None) or 1.0
    reports = [(label, core.check_internal_positivity(s, horizon=horizon))
               for label, s in targets]
    holds = all(r.holds for _, r in reports)
    sampled = any(r.sampled for _, r in reports)
    violations = [(label, v) for label, r in reports for v in r.violations]

    if holds:
        print("internally positive"
              + (" (timer-dependent blocks checked on a sample grid)"
                 if sampled else ""))
    else:
        print(f"not internally positive ({len(violations)} violating entries):")
        for label, v in violations[:20]:
            print(f"  {label}{v}")
    if args.out:
        _write_json(args.out, {
            "command": "check-positivity", "holds": holds, "sampled": sampled,
            "violations": [
                {"where": label.strip(": "), "block": v.matrix,
                 "index": list(v.index), "tau": v.tau, "value": v.value}
                for label, v in violations]})
    return 0 if holds else 2


def _require_constraint(loaded: LoadedSystem):
    if loaded.constraint is None:
        raise SchemaError("dwell: required for this command")
    return loaded.constraint


def _constraint_doc(loaded: LoadedSystem):
    return loaded.doc.get("dwell")


def _cmd_certify(args) -> int:
    loaded = load(args.file)
    c = _require_constraint(loaded)
    opts = loaded.certify_options

    if loaded.kind == "lft":
        free = args.free_scalings or loaded.scalings == _FREE
        if isinstance(c, core.Range):
            res = certify.certify_range_free(loaded.system, c, opts) if free \
                else certify.certify_range(loaded.system, c, loaded.scalings, opts)
        elif isinstance(c, core.Minimum):
            res = certify.certify_min_free(loaded.system, c, opts) if free \
                else certify.certify_min(loaded.system, c, loaded.scalings, opts)
        else:
            print("error: periodic dwell constraints apply to delayed systems",
                  file=sys.stderr)
            return 1
        scal = "free" if free else loaded.doc.get("scalings", {}).get(
            "structure", "unconstrained")
    else:
        if loaded.kind == "delay":
            target = loaded.system
        elif loaded.kind == "plant":
            if loaded.gains is None:
                print("error: certifying a plant needs observer gains "
                      "(observer.L_c / observer.L_d)", file=sys.stderr)
                return 1
            target = observer.error_system(loaded.system, loaded.gains)
        else:
            print("error: certify supports kinds lft, delay and plant "
                  "(switched designs are certified by synthesize itself)",
                  file=sys.stderr)
            return 1
        scal = delay.UNCONSTRAINED_PERIODIC if args.free_scalings else loaded.scalings
        try:
            if isinstance(c, (core.Range, core.PeriodicRange)):
                res = delay.certify_delay_range(target, c, scal, opts)
            else:
                res = delay.certify_delay_min(target, c, scal, opts)
        except (TypeError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    out = _result_path(args.file, args.out)
    if isinstance(res, certify.Certificate):
        payload = {
            "command": "certify", "status": "feasible", "kind": res.kind,
            "scalings": scal if isinstance(scal, str) else "structured",
            "constraint": _constraint_doc(loaded),
            "gamma": res.gamma, "eps": res.eps, "sound": res.sound,
            "restriction": res.restriction,
            "certificate": {
                "nodes": res.zeta.nodes.tolist(),
                "zeta": res.zeta.values.tolist(),
                "mu_c": None if res.mu_c is None else res.mu_c.values.tolist(),
                "mu_d": None if res.mu_d is None else np.asarray(res.mu_d).tolist(),
            }}
        _write_json(out, payload)
        print(f"certificate found: {res.kind} for {c}")
        print(f"gamma = {res.gamma:.6f}   eps = {res.eps:.3g}   "
              + ("(rows sound)" if res.sound else "(rows sampled)"))
        if res.restriction:
            print(f"restriction: {res.restriction}")
        print(f"result written to {out}")
        return 0
    payload = {
        "command": "certify", "status": "infeasible", "kind": res.kind,
        "scalings": scal if isinstance(scal, str) else "structured",
        "constraint": _constraint_doc(loaded),
        "message": str(res),
        "conflicts": [[name, w] for name, w in res.rows],
    }
    _write_json(out, payload)
    print(str(res))
    print(f"result written to {out}")
    return 2


def _cmd_synthesize(args) -> int:
    loaded = load(args.file)
    if loaded.kind not in ("plant", "switched"):
        print("error: synthesize needs a measured plant (kinds plant, "
              "switched); certify handles kinds lft and delay",
              file=sys.stderr)
        return 1
    c = _require_constraint(loaded)
    opts = loaded.synthesis_options
    scal = loaded.scalings

    try:
        if loaded.kind == "plant":
            if isinstance(c, (core.Range, core.PeriodicRange)):
                res = observer.synthesize_range(loaded.system, c, scal, opts,
                                                gain_box=loaded.gain_box)
            else:
                res = observer.synthesize_min(loaded.system, c, scal, opts,
                                              gain_box=loaded.gain_box)
        else:
            res = observer.synthesize_switched(loaded.system, c, scal, opts,
                                               gain_box=loaded.gain_box)
    except (TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    out = _result_path(args.file, args.out)
    doc = {k: v for k, v in loaded.doc.items() if k != "result"}
    if isinstance(res, observer.Infeasible):
        doc["result"] = {
            "command": "synthesize", "status": "infeasible", "kind": res.kind,
            "scalings": scal, "constraint": _constraint_doc(loaded),
            "message": str(res),
            "conflicts": [[name, w] for name, w in res.rows],
        }
        _write_json(out, doc)
        print(str(res))
        print(f"result written to {out}")
        return 2

    first = res[0] if isinstance(res, list) else res
    result = {
        "command": "synthesize", "status": "feasible", "kind": first.kind,
        "scalings": scal, "constraint": _constraint_doc(loaded),
        "gamma": first.gamma, "eps": first.eps, "alpha": first.alpha,
        "sound": first.sound, "restriction": first.restriction,
    }
    if isinstance(res, list):
        result["gains"] = {"modes": [_gains_payload(g) for g in res]}
    else:
        result["gains"] = _gains_payload(res)
    doc["result"] = result
    _write_json(out, doc)

    print(f"gains synthesized: {first.kind} for {c}")
    print(f"gamma = {first.gamma:.6f}   eps = {first.eps:.3g}   "
          + ("(rows sound)" if first.sound else "(rows sampled)"))
    if isinstance(res, list):
        for g in res:
            print(f"mode {g.mode}: L(0) =")
            print(_fmt_matrix(g.L_c_at(0.0)))
    else:
        print("L_c(0) =")
        print(_fmt_matrix(res.L_c_at(0.0)))
        if res.L_d is not None and res.L_d.size:
            print("L_d =")
            print(_fmt_matrix(res.L_d))
    if first.restriction:
        print(f"restriction: {first.restriction}")
    print(f"result written to {out}")
    return 0


def _parse_seq(spec: str, loaded: LoadedSystem, horizon: float):
    """gen:SEED or a JSON sequence file -> (DwellSequence, seed | None)."""
    if spec.startswith("gen:"):
        try:
            seed = int(spec[4:])
        except ValueError:
            raise SchemaError(f"--seq: expected gen:SEED with integer seed, "
                              f"got {spec!r}")
        c = loaded.constraint
        if c is None:
            raise SchemaError("--seq gen: needs a dwell block in the system file")
        n_modes = loaded.system.n_modes if loaded.kind == "switched" else None
        return sim.gen_sequence(c, horizon, seed, n_modes=n_modes), seed
    doc = load_document(spec)
    _check_keys(doc, {"dwells", "modes", "repeats"}, "sequence")
    if "dwells" not in doc:
        raise SchemaError("sequence.dwells: required")
    dwells = [_number(v, f"sequence.dwells entry {i + 1}")
              for i, v in enumerate(doc["dwells"])]
    modes = doc.get("modes")
    if modes is not None:
        modes = [_integer(v, f"sequence.modes entry {i + 1}")
                 for i, v in enumerate(modes)]
    repeats = doc.get("repeats", False)
    if not isinstance(repeats, bool):
        raise SchemaError("sequence.repeats: expected true or false")
    return _wrap_build(lambda: sim.DwellSequence.build(
        dwells, modes=modes, repeats=repeats), "sequence"), None


def _piecewise_input(rng, bounds, cells: int, horizon: float):
    if bounds is None:
        return None
    lo, hi = bounds
    vals = rng.uniform(lo, hi, size=(cells, lo.size))

    def fn(t):
        return vals[min(int(t / horizon * cells), cells - 1)]
    return fn


def _per_jump_input(rng, bounds, draws: int):
    if bounds is None:
        return None
    lo, hi = bounds
    vals = rng.uniform(lo, hi, size=(draws, lo.size))

    def fn(k):
        return vals[(k - 1) % draws]
    return fn


def _cmd_simulate(args) -> int:
    loaded = load(args.file)
    horizon = args.horizon
    seq, seed = _parse_seq(args.seq, loaded, horizon)
    input_seed = args.input_seed if args.input_seed is not None \
        else (seed if seed is not None else 0)
    rng = np.random.default_rng([input_seed, 0x5EED])
    w_c = _piecewise_input(rng, loaded.w_c_bounds, 64, horizon)
    w_d = _per_jump_input(rng, loaded.w_d_bounds, 4096)

    n = loaded.system.n
    center = loaded.phi0 if loaded.phi0 is not None else np.ones(n)

    if loaded.kind in ("plant", "switched"):
        if loaded.gains is None:
            print("error: simulating a plant needs gains - run synthesize "
                  "and simulate its result file, or put constant L_c/L_d "
                  "(or L) in the observer block", file=sys.stderr)
            return 1
        spread = loaded.spread if loaded.spread is not None else np.full(n, 0.5)
        lo_hist, hi_hist = center - spread, center + spread
        cb = None if loaded.w_c_bounds is None else \
            (lambda t: loaded.w_c_bounds[0], lambda t: loaded.w_c_bounds[1])
        db = None if loaded.w_d_bounds is None else \
            (lambda k: loaded.w_d_bounds[0], lambda k: loaded.w_d_bounds[1])
        trace = sim.simulate_with_observer(
            loaded.system, loaded.gains, seq,
            w_c=w_c, w_d=w_d,
            phi0=lambda s: center, phi0_minus=lambda s: lo_hist,
            phi0_plus=lambda s: hi_hist,
            horizon=horizon, step=args.step,
            w_c_bounds=cb, w_d_bounds=db)
    else:
        if loaded.kind == "lft":
            A, Ec, Cc, Fc = core.worst_case_continuous(loaded.system)
            J, Ed, Cd, Fd = core.worst_case_discrete(loaded.system)
            target = delay.DelaySystem.build(
                A=A, Ec=Ec, Cc=Cc, Fc=Fc, J=J, Ed=Ed, Cd=Cd, Fd=Fd, h_c=1.0)
        else:
            target = loaded.system
        trace = sim.simulate(target, seq, w_c=w_c, w_d=w_d,
                             horizon=horizon, step=args.step,
                             phi0=lambda s: center)

    sim.to_csv(trace, args.out)
    print(f"simulated {horizon:g} time units: {trace.t.size} samples, "
          f"{len(trace.jumps)} jumps, step {trace.step:g}")
    with np.printoptions(precision=6, suppress=True):
        print(f"final state: {trace.x[-1]}")
    if trace.xminus is not None:
        rep = sim.check_enclosure(trace)
        if rep.holds:
            print("enclosure: holds at every sample")
        else:
            print(f"enclosure: VIOLATED at t={rep.time:g} "
                  f"({rep.component}, margin {rep.margin:.3g})")
    if loaded.kind == "lft":
        print("note: uncertainty channels closed at their worst-case operators")
    print(f"trace written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.param != "Tbar":
        print(f"error: unsupported sweep parameter {args.param!r} "
              "(only Tbar)", file=sys.stderr)
        return 1
    if args.steps < 1:
        print("error: --steps must be at least 1", file=sys.stderr)
        return 1
    loaded = load(args.file)
    values = np.linspace(args.lo, args.hi, args.steps)

    def gamma_at(tbar: float):
        c = core.Minimum(float(tbar))
        if loaded.kind == "lft":
            if args.free_scalings or loaded.scalings == _FREE:
                res = certify.certify_min_free(loaded.system, c,
                                               loaded.certify_options)
            else:
                res = certify.certify_min(loaded.system, c, loaded.scalings,
                                          loaded.certify_options)
        elif loaded.kind == "delay":
            scal = delay.UNCONSTRAINED_PERIODIC if args.free_scalings \
                else loaded.scalings
            res = delay.certify_delay_min(loaded.system, c, scal,
                                          loaded.certify_options)
        elif loaded.kind == "plant":
            res = observer.synthesize_min(loaded.system, c, loaded.scalings,
                                          loaded.synthesis_options,
                                          gain_box=loaded.gain_box)
        else:
            res = observer.synthesize_switched(loaded.system, c,
                                               loaded.scalings,
                                               loaded.synthesis_options,
                                               gain_box=loaded.gain_box)
        if isinstance(res, (certify.Infeasible, observer.Infeasible)):
            return None
        return (res[0] if isinstance(res, list) else res).gamma

    rows = []
    last_infeasible = None
    first_feasible = None
    for t in values:
        g = gamma_at(t)
        rows.append((t, g))
        if g is None:
            last_infeasible = t if first_feasible is None else last_infeasible
        elif first_feasible is None:
            first_feasible = t
        print(f"Tbar = {t:<10.6g} -> " + ("INF" if g is None else f"{g:.6f}"))

    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("Tbar,gamma\n")
        for t, g in rows:
            f.write(f"{t:.10g}," + ("INF" if g is None else f"{g:.12g}") + "\n")

    feasible = sum(1 for _, g in rows if g is not None)
    print(f"{feasible}/{len(rows)} points feasible; sweep written to {args.out}")
    if last_infeasible is not None and first_feasible is not None:
        print(f"feasibility boundary between {last_infeasible:g} "
              f"and {first_feasible:g}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="posimp",
        description="Dwell-time certificates, hybrid L1-gain bounds, "
                    "interval-observer synthesis and hybrid simulation "
                    "for linear positive impulsive systems.")
    sub = p.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("check-positivity",
                        help="internal-positivity report (exit 2 when violated)")
    cp.add_argument("file")
    cp.add_argument("--out", help="optional JSON report path")
    cp.set_defaults(fn=_cmd_check_positivity)

    ce = sub.add_parser("certify", help="stability / hybrid-gain certificate")
    ce.add_argument("file")
    ce.add_argument("--free-scalings", action="store_true",
                    help="use the richest scaling class the kind admits")
    ce.add_argument("--out", help="result JSON path "
                                  "(default: FILE with .result.json)")
    ce.set_defaults(fn=_cmd_certify)

    sy = sub.add_parser("synthesize", help="interval-observer gains")
    sy.add_argument("file")
    sy.add_argument("--out", help="result JSON path "
                                  "(default: FILE with .result.json)")
    sy.set_defaults(fn=_cmd_synthesize)

    si = sub.add_parser("simulate", help="hybrid trajectory to CSV")
    si.add_argument("file")
    si.add_argument("--seq", required=True,
                    help="gen:SEED or a JSON dwell-sequence file")
    si.add_argument("--out", required=True, help="trace CSV path")
    si.add_argument("--horizon", type=float, default=20.0)
    si.add_argument("--step", type=float, default=None)
    si.add_argument("--input-seed", type=int, default=None,
                    help="disturbance seed (default: the gen: seed, else 0)")
    si.set_defaults(fn=_cmd_simulate)

    sw = sub.add_parser("sweep",
                        help="gamma as a function of the minimum dwell time")
    sw.add_argument("file")
    sw.add_argument("--param", required=True)
    sw.add_argument("--from", dest="lo", type=float, required=True)
    sw.add_argument("--to", dest="hi", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--out", required=True, help="sweep CSV path")
    sw.add_argument("--free-scalings", action="store_true")
    sw.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (sim.SimulationError, core.WellPosednessError, lp.SolverError,
            OSError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
