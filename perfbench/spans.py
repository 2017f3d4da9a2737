"""Span tracing of the stochgame layers, installed from outside the package.

``install`` replaces every public module-level function of the layer modules
(plus ``DiscountedProfileProvider.solution``) with a wrapper that records one
span per call: name, start, end and the enclosing span.  Each wrapper is put
into every ``stochgame`` namespace that held the original object, so calls
between modules (``value_batch`` -> ``solve_matrix_game``, ``cli`` ->
``finite_values``, ...) are caught where they happen.  Spans stay in memory
in flat arrays until ``Tracer.save`` writes them out at the end of a run.

Only the traced benchmark process calls ``install``; the untraced process
that produces the end-to-end numbers never imports this module.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: layers, named after the modules of src/stochgame; ``errors`` has no work
LAYERS = ("matrix", "shapley", "adapted", "evaluation", "game", "corpus", "cli")
PROVIDER_SOLUTION = "adapted.DiscountedProfileProvider.solution"


class Tracer:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.hook = array("d")
        self._stack: list[int] = []
        # counts read off arguments and results at the span boundaries
        self.batch_items = 0
        self.finite_stages = 0
        self.traj_stages = 0
        self.mc_path_stages = 0
        self.blocks = 0
        self.nonzero_exits = 0
        self.max_gap_rel = 0.0
        self.residual_margin = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(0)
        self.hook.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def charge_hook(self, seconds: float) -> None:
        """Book hook time spent inside the enclosing span as benchmark time."""
        if self._stack:
            self.hook[self._stack[-1]] += seconds

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "error": np.frombuffer(self.error, dtype=np.int8),
            "hook": np.frombuffer(self.hook, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


# ---------------------------------------------------------------------------
# Boundary hooks: counts read from the arguments and results of a call
# ---------------------------------------------------------------------------


def _arg(fn, name: str, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _hook_solve(tracer, fn, args, kwargs, result):
    scale = float(np.abs(np.asarray(args[0] if args else kwargs["matrix"], dtype=float)).max())
    if scale > 0.0:
        tracer.max_gap_rel = max(tracer.max_gap_rel, result.certificate_gap / scale)


def _hook_batch(tracer, fn, args, kwargs, result):
    tracer.batch_items += int(np.shape(args[0] if args else kwargs["tensors"])[0])


def _hook_discounted(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    target = bound.arguments["tol"] * result.discount
    tracer.residual_margin = max(tracer.residual_margin, result.residual / target)


def _hook_finite(tracer, fn, args, kwargs, result):
    tracer.finite_stages += int(_arg(fn, "horizon", args, kwargs))


def _hook_trajectory(tracer, fn, args, kwargs, result):
    tracer.traj_stages += int(result.horizon)


def _hook_mc(tracer, fn, args, kwargs, result):
    tracer.mc_path_stages += int(_arg(fn, "horizon", args, kwargs)) * int(
        _arg(fn, "trials", args, kwargs)
    )


def _hook_adapted(tracer, fn, args, kwargs, result):
    tracer.blocks += len(result.schedule.discounts)


def _hook_main(tracer, fn, args, kwargs, result):
    if result != 0:
        tracer.nonzero_exits += 1


HOOKS = {
    "matrix.solve_matrix_game": _hook_solve,
    "matrix.value_batch": _hook_batch,
    "shapley.discounted_value": _hook_discounted,
    "shapley.finite_values": _hook_finite,
    "shapley.finite_value": _hook_finite,
    "evaluation.trajectory": _hook_trajectory,
    "evaluation.monte_carlo_payoff": _hook_mc,
    "adapted.adapted_profile": _hook_adapted,
    "cli.main": _hook_main,
}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx)
        if hook is not None:
            began = time.perf_counter()
            hook(tracer, fn, args, kwargs, result)
            tracer.charge_hook(time.perf_counter() - began)
        return result

    return wrapper


def install(tracer: Tracer) -> dict:
    """Wrap every public function of the layer modules.

    Returns ``{id(original): (span name, original)}`` for later coverage checks.

    Raises RuntimeError when, after patching, any stochgame module still holds
    an unwrapped original (the wrapper coverage self-check).
    """
    import stochgame.cli  # noqa: F401  (the package itself does not import cli)
    from stochgame import adapted

    originals: dict[int, tuple[str, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"stochgame.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                originals[id(obj)] = (f"{layer}.{attr}", obj)
    solution = adapted.DiscountedProfileProvider.solution
    originals[id(solution)] = (PROVIDER_SOLUTION, solution)

    wrappers = {key: _wrap(tracer, name, fn) for key, (name, fn) in originals.items()}
    for holder, mapping in _namespaces():
        for attr, obj in list(mapping.items()):
            if id(obj) in wrappers and obj is originals[id(obj)][1]:
                if isinstance(holder, dict):
                    holder[attr] = wrappers[id(obj)]
                else:
                    setattr(holder, attr, wrappers[id(obj)])
    left = unwrapped_holders(originals)
    if left:
        raise RuntimeError(f"unwrapped originals remain after patching: {left}")
    return originals


def _namespaces() -> list:
    """(holder, mapping) of every place in stochgame that can hold a function:
    module namespaces, module-level dicts (such as ``corpus.CORPUS``) and classes."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name != "stochgame" and not name.startswith("stochgame."):
            continue
        out.append((vars(module), vars(module)))
        for obj in list(vars(module).values()):
            if isinstance(obj, dict):
                out.append((obj, obj))
            elif inspect.isclass(obj) and obj.__module__.startswith("stochgame"):
                out.append((obj, vars(obj)))
    return out


def unwrapped_holders(originals: dict) -> list[str]:
    """Every attribute in a stochgame namespace that still holds an original."""
    left = []
    for holder, mapping in _namespaces():
        for attr, obj in mapping.items():
            entry = originals.get(id(obj))
            if entry is not None and obj is entry[1]:
                left.append(f"{getattr(holder, '__name__', type(holder).__name__)}:{attr}")
    return left


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, window_s: float) -> tuple[dict, dict, float]:
    """Per-layer metrics from the spans.

    Returns the metrics, notes on metrics absent from this workload, and the
    sum of every layer's self time (``corpus`` included) for the self check.

    ``window_s`` is the wall time the spans were recorded in; the benchmark's
    own share is whatever the top-level spans do not cover.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child - a["hook"]
    # look names and layers up per name id, with a last entry "" for "no parent"
    names = np.array(tracer.names + [""], dtype=object)
    layers = np.array([n.split(".")[0] for n in names], dtype=object)
    parent_id = np.where(has_parent, a["name_idx"][np.maximum(parent, 0)], len(tracer.names))
    name_of, layer_of = names[a["name_idx"]], layers[a["name_idx"]]
    parent_name, parent_layer = names[parent_id], layers[parent_id]

    def pick(name):
        return name_of == name

    def count(name):
        return int(pick(name).sum())

    def total(name):
        return float(dur[pick(name)].sum())

    def layer_self(layer):
        return float(self_time[layer_of == layer].sum())

    def outermost(group, parent_group):
        # wall time of the group's spans, counting nested group spans once
        return float(dur[group & ~parent_group].sum())

    solve = pick("matrix.solve_matrix_game")
    fallback = int((solve & (parent_name == "matrix.value_batch")).sum())
    sweeps = int((pick("matrix.value_batch") & (parent_name == "shapley.discounted_value")).sum())
    provider_solves = int(
        (pick("shapley.discounted_value") & (parent_name == PROVIDER_SOLUTION)).sum()
    )
    lookups = count(PROVIDER_SOLUTION)
    certify = pick("evaluation.certify_epsilon_optimality")
    convergence_errors = int((pick("shapley.discounted_value") & (a["error"] == 1)).sum())
    loads = ["game.load_game", "game.load_game_file"]
    bench_self = window_s - float(dur[~has_parent].sum()) + float(a["hook"].sum())

    m = {
        "matrix.solve_calls": int(solve.sum()),
        "matrix.solve_us": 1e6 * _ratio(total("matrix.solve_matrix_game"), int(solve.sum())),
        "matrix.batch_calls": count("matrix.value_batch"),
        "matrix.batch_items": tracer.batch_items,
        "matrix.batch_us_per_item": 1e6 * _ratio(total("matrix.value_batch"), tracer.batch_items),
        "matrix.fallback_calls": fallback,
        "matrix.fallback_frac": _ratio(fallback, tracer.batch_items),
        "matrix.max_gap_rel": tracer.max_gap_rel,
        "matrix.self_s": layer_self("matrix"),
        "shapley.discounted_calls": count("shapley.discounted_value"),
        "shapley.sweeps": sweeps,
        "shapley.discounted_s": total("shapley.discounted_value"),
        "shapley.residual_margin": tracer.residual_margin,
        "shapley.finite_stages": tracer.finite_stages,
        "shapley.finite_us_per_stage": 1e6
        * _ratio(total("shapley.finite_values") + total("shapley.finite_value"), tracer.finite_stages),
        "shapley.limit_s": total("shapley.limit_value_estimate"),
        "shapley.convergence_errors": convergence_errors,
        "shapley.self_s": layer_self("shapley"),
        "adapted.profile_calls": count("adapted.adapted_profile"),
        "adapted.blocks": tracer.blocks,
        "adapted.solves": provider_solves,
        "adapted.cache_hit_frac": 1.0 - provider_solves / lookups if lookups else 0.0,
        "adapted.self_s": layer_self("adapted"),
        "evaluation.certify_calls": int(certify.sum()),
        "evaluation.certify_self_s": float(self_time[certify].sum()),
        "evaluation.traj_stages": tracer.traj_stages,
        "evaluation.traj_us_per_stage": 1e6 * _ratio(total("evaluation.trajectory"), tracer.traj_stages),
        "evaluation.mc_path_stages": tracer.mc_path_stages,
        "evaluation.mc_ns_per_path_stage": 1e9
        * _ratio(total("evaluation.monte_carlo_payoff"), tracer.mc_path_stages),
        "evaluation.self_s": layer_self("evaluation"),
        "game.load_s": outermost(np.isin(name_of, loads), np.isin(parent_name, loads)),
        "game.kernel_calls": count("game.profile_transition_matrix"),
        "game.self_s": layer_self("game"),
        "corpus.gen_s": outermost(layer_of == "corpus", parent_layer == "corpus"),
        "cli.commands": count("cli.main"),
        "cli.nonzero_exits": tracer.nonzero_exits,
        "cli.self_s": layer_self("cli"),
        "trace.spans": len(dur),
        "trace.bench_self_s": bench_self,
    }

    # metric -> (the count it rests on, why that count can be 0)
    absent = {
        "matrix.solve_us": (m["matrix.solve_calls"], "no solve_matrix_game call"),
        "matrix.batch_us_per_item": (tracer.batch_items, "no value_batch call"),
        "matrix.fallback_frac": (tracer.batch_items, "no value_batch call"),
        "shapley.discounted_s": (m["shapley.discounted_calls"], "no discounted_value call"),
        "shapley.residual_margin": (m["shapley.discounted_calls"], "no discounted_value call"),
        "shapley.finite_us_per_stage": (tracer.finite_stages, "no finite_values/finite_value call"),
        "shapley.limit_s": (count("shapley.limit_value_estimate"), "no limit_value_estimate call"),
        "adapted.cache_hit_frac": (lookups, "no DiscountedProfileProvider.solution lookup"),
        "evaluation.traj_us_per_stage": (tracer.traj_stages, "no trajectory call"),
        "evaluation.mc_ns_per_path_stage": (tracer.mc_path_stages, "no monte_carlo_payoff call"),
        "game.load_s": (count("game.load_game") + count("game.load_game_file"), "no game file loaded"),
    }
    notes = {
        key: f"absent on this workload ({why}); reported as 0"
        for key, (base, why) in absent.items() if not base
    }
    return m, notes, sum(layer_self(layer) for layer in LAYERS)


def self_time_check(metrics: dict, self_sum_s: float, window_s: float) -> str | None:
    """The layers' self times plus the benchmark's own time must equal the window."""
    total = self_sum_s + metrics["trace.bench_self_s"]
    if metrics["trace.bench_self_s"] < -1e-9 or abs(total - window_s) > 1e-6 * max(window_s, 1.0):
        return f"self times sum to {total:.6f} s against a traced wall of {window_s:.6f} s"
    return None
