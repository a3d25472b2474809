"""Per-layer tracing of the multibody package, installed from outside it.

`Tracer.install` wraps the public functions and methods defined in each
traced module at every place a caller looks them up: the attribute of every
`multibody` module that holds the function (so names one module imported
from another are wrapped too) and the attribute of the defining class.
`Tracer.uninstall` puts the originals back.

Each wrapped call is a span.  A layer's self time is the duration of its
spans minus the time of the wrapped spans they contain, so the self times of
all layers plus the time no wrapped span covers add up to the traced time.
A group is a named set of functions of one layer; it counts only its
outermost calls, with their inclusive time and the exceptions they raise.
A group entry naming a function that does not exist matches nothing and
reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "multibody"

# Modules traced per op.  `config` is measured at set-up (config.load_ms).
LAYERS = ("se3", "kinematics", "constraints", "solver", "energy", "metrics", "experiments")

# Dunder methods that callers reach through an operator.
OPERATORS = ("__matmul__",)

# group name -> (layer, qualified names); "*" stands for every traced
# function of the layer.
GROUPS = {
    "kinematics.jacobian": ("kinematics", ("KinematicStructure.compute_body_jacobians",)),
    "kinematics.update": (
        "kinematics",
        ("KinematicStructure.update_poses", "KinematicStructure.refresh_joint_transforms"),
    ),
    "constraints.residual": (
        "constraints",
        (
            "evaluate_constraint",
            "evaluate_orthogonality",
            "Constraint.residual",
            "OrthogonalityConstraint.residual",
        ),
    ),
    "constraints.jacobian": (
        "constraints",
        (
            "constraint_jacobian",
            "orthogonality_jacobian",
            "Constraint.jacobian",
            "OrthogonalityConstraint.jacobian",
        ),
    ),
    "solver.step": ("solver", ("step",)),
    "solver.assemble": ("solver", ("assemble",)),
    "solver.solve": ("solver", ("solve_kkt",)),
    "solver.update": ("solver", ("apply_update",)),
    "energy": ("energy", ("*",)),
    "metrics": ("metrics", ("*",)),
}


def _kkt_dim(args, kwargs):
    k = args[0] if args else kwargs["k"]
    return k.g_k.shape[0] + k.b_vec.shape[0]


# "layer.qualname" -> function of the call's arguments, averaged per call.
OBSERVERS = {"solver.solve_kkt": _kkt_dim}


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class GroupStats:
    __slots__ = ("calls", "inclusive_s", "failures", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive_s = 0.0
        self.failures = 0
        self.depth = 0


class ObserverStats:
    __slots__ = ("calls", "total")

    def __init__(self):
        self.calls = 0
        self.total = 0.0


def _traced_members(module):
    """(owner, attribute, qualname, original attribute value, function) for
    each public function and method defined in `module`."""
    for name, obj in list(vars(module).items()):
        if isinstance(obj, types.FunctionType):
            if obj.__module__ == module.__name__ and not name.startswith("_"):
                yield module, name, name, obj, obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                func = member.__func__ if isinstance(member, staticmethod) else member
                if isinstance(func, types.FunctionType):
                    yield obj, attr, f"{name}.{attr}", member, func


class Tracer:
    """Spans and counts for the layers of the package, in memory."""

    def __init__(self, layers=LAYERS, groups=GROUPS):
        self.layers = {layer: LayerStats() for layer in layers}
        self.groups = {name: GroupStats() for name in groups}
        self.observers = {name: ObserverStats() for name in OBSERVERS}
        self._group_spec = groups
        self._stack = []
        self._group_cache = {}
        self._plan_cache = None
        self.installed = False
        self.ops = 0
        self.op_s = 0.0

    # -- installation ---------------------------------------------------

    @staticmethod
    def _package_modules():
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _groups_for(self, layer, qualname):
        key = (layer, qualname)
        if key not in self._group_cache:
            self._group_cache[key] = tuple(
                self.groups[name]
                for name, (g_layer, members) in self._group_spec.items()
                if g_layer == layer and ("*" in members or qualname in members)
            )
        return self._group_cache[key]

    def _plan(self):
        """(owner, attribute, original, wrapper) for every place a traced
        function is looked up; computed once, on the first install."""
        modules = self._package_modules()
        plan = []
        for layer in self.layers:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for owner, attr, qualname, original, func in _traced_members(module):
                wrapper = self._wrap(layer, qualname, func)
                if owner is module:
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is func:
                                plan.append((m, name, value, wrapper))
                else:
                    if isinstance(original, staticmethod):
                        wrapper = staticmethod(wrapper)
                    plan.append((owner, attr, original, wrapper))
        return plan

    def install(self):
        if self.installed:
            raise RuntimeError("tracer is already installed")
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, wrapper in self._plan_cache:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, original, _ in reversed(self._plan_cache):
                setattr(owner, attr, original)
        self.installed = False

    def _wrap(self, layer, qualname, func):
        stats = self.layers[layer]
        groups = self._groups_for(layer, qualname)
        returned = f"{qualname}.<returned>"
        key = f"{layer}.{qualname}"
        observe = OBSERVERS.get(key)
        observed = self.observers.get(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observed.calls += 1
                observed.total += observe(args, kwargs)
            for g in groups:
                g.depth += 1
            stack.append(0.0)
            failed = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                duration = clock() - start
                stats.self_s += duration - stack.pop()
                stats.calls += 1
                if stack:
                    stack[-1] += duration
                for g in groups:
                    g.depth -= 1
                    if g.depth == 0:
                        g.calls += 1
                        g.inclusive_s += duration
                        g.failures += failed
            # Energy providers are closures returned by factory functions;
            # trace them as calls of the factory's layer.
            if isinstance(result, types.FunctionType):
                return tracer._wrap(layer, returned, result)
            return result

        return wrapper

    # -- per-op accounting ----------------------------------------------

    def record_op(self, seconds: float):
        """Count one traced op that took `seconds` between its outer clocks."""
        self.ops += 1
        self.op_s += seconds

    def per_op(self) -> dict:
        """Per-op means in milliseconds and counts over the recorded ops."""
        n = max(self.ops, 1)
        out = {}
        for layer, st in self.layers.items():
            out[f"{layer}.calls_per_op"] = st.calls / n
            out[f"{layer}.self_ms_per_op"] = 1e3 * st.self_s / n
        for name, g in self.groups.items():
            out[f"{name}.calls_per_op"] = g.calls / n
            out[f"{name}.ms_per_op"] = 1e3 * g.inclusive_s / n
            out[f"{name}.failures_per_op"] = g.failures / n
        for name, o in self.observers.items():
            out[f"{name}.mean"] = o.total / o.calls if o.calls else 0.0
        attributed = sum(st.self_s for st in self.layers.values())
        out["op_ms"] = 1e3 * self.op_s / n
        out["unattributed_ms_per_op"] = 1e3 * (self.op_s - attributed) / n
        return out
