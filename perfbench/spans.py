"""Outside-in span tracer for the modgrad benchmark.

Wraps the public functions and methods of each modgrad layer in place,
from outside the package, so the program itself stays untouched.  Two
kinds of wrapper share one call stack:

* coarse calls (``cli.main``, ``ode.simulate``, ``stability.certify``, ...)
  record a span: name, start, end, parent span and the run id;
* hot per-step calls (``System.rhs``, ``Expression.grad``, ...) record no
  span, only their call count and self time, which keeps the tracing
  overhead bounded on runs with ~10^5 right-hand-side calls.

A wrapper's self time is its duration minus the durations of the wrapped
calls made inside it, so the self times of all names add up to the
duration of the root span ``cli.main``.  Names are patched where their
caller looks them up (``stability.isolation_probe``, ``cli.validate_h0``)
and methods on their class.  A target that a later version of the program
no longer has is skipped and listed in ``missing``.

The tracer keeps one stack for the thread that installed it; calls from
other threads pass through untraced and are only counted.  The traced run
therefore sets the basin verification worker count to 1.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import Counter, defaultdict

# (module, owner attribute or None, attribute, span name, keep span)
COARSE = "span"
HOT = "hot"

TARGETS = (
    ("cli", None, "main", "cli.main", COARSE),
    ("cli", None, "load_config", "cli.load_config", COARSE),
    ("cli", None, "validate_h0", "field.validate_h0", COARSE),
    ("equilibria", None, "find_critical_points", "equilibria.find", COARSE),
    ("equilibria", None, "isolation_probe", "equilibria.isolation_probe", COARSE),
    ("stability", None, "isolation_probe", "equilibria.isolation_probe", COARSE),
    ("stability", None, "certify", "stability.certify", COARSE),
    ("stability", None, "ec_check", "stability.ec_check", COARSE),
    ("linalg", None, "integrate_adaptive", "linalg.quad", COARSE),
    ("ode", None, "simulate", "ode.simulate", COARSE),
    ("ode", None, "lyapunov_trace", "ode.lyapunov", COARSE),
    ("basin", None, "extract_component", "basin.extract", COARSE),
    ("basin", None, "check_hypotheses", "basin.hypotheses", COARSE),
    ("basin", None, "verify_basin", "basin.verify", COARSE),
    ("linalg", None, "eigen_all", "linalg.eigen", HOT),
    ("field", "System", "rhs", "field.rhs", HOT),
    ("field", "ScalarField", "grad", "field.grad", HOT),
    ("field", "ScalarField", "hessian", "field.hessian", HOT),
    ("field", "MatrixPath", "value", "field.matrix_value", HOT),
    ("field", "MatrixPath", "smallest_eigenvalue", "field.lambda1", HOT),
    ("expr", "Expression", "eval", "expr.eval", HOT),
    ("expr", "Expression", "grad", "expr.grad", HOT),
    ("expr", "Expression", "hessian", "expr.hessian", HOT),
    ("expr", "Expression", "eval_array", "expr.eval_array", HOT),
    ("gallery", "PiecewiseCubic", "value", "gallery.cubic", HOT),
    ("gallery", "PiecewiseCubic", "slope", "gallery.cubic", HOT),
    ("gallery", "PiecewiseCubic", "curvature", "gallery.cubic", HOT),
)

LAYERS = ("cli", "expr", "field", "gallery", "linalg", "ode",
          "equilibria", "stability", "basin")


class Tracer:
    """Span recorder installed by patching; one per traced process."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []            # [name, start, end, parent index or None]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.missing = []
        self._stack = []           # frames: [name, child seconds, span index]
        self._thread = threading.get_ident()
        self.off_thread_calls = 0  # passed through untraced
        self.returns = defaultdict(list)  # span name -> returned values
        self.rhs_in_simulate = 0
        self.quad_evals = 0
        self._ec_inputs = set()
        self._ec_matrices = []     # keeps id()s in _ec_inputs unique

    # -- installing ---------------------------------------------------------

    def install(self, modules):
        for mod_name, owner_name, attr, name, kind in TARGETS:
            owner = modules.get(mod_name)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, kind == COARSE))

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, keep_span):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        returns = self.returns[name]
        clock = time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                tracer.off_thread_calls += 1
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = None
            if keep_span:
                index = len(spans)
                parent = None
                for frame in reversed(stack):
                    if frame[2] is not None:
                        parent = frame[2]
                        break
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if index is not None:
                    spans[index][1] = start
                    spans[index][2] = end
            if keep_span:
                returns.append(result)
            if observe is not None:
                observe()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # per-target hooks: count what the calls are given

    def _before_linalg_quad(self, args, kwargs):
        g = args[0] if args else kwargs.pop("g")

        def counted(t):
            self.quad_evals += 1
            return g(t)

        return (counted,) + tuple(args[1:]), kwargs

    def _before_stability_ec_check(self, args, kwargs):
        names = ("matrix", "horizon", "quad_tol")
        defaults = {"horizon": 1e4, "quad_tol": 2e-5}
        bound = dict(zip(names, args))
        bound.update(kwargs)
        matrix = bound["matrix"]
        if all(m is not matrix for m in self._ec_matrices):
            self._ec_matrices.append(matrix)
        key = (id(matrix), float(bound.get("horizon", defaults["horizon"])),
               float(bound.get("quad_tol", defaults["quad_tol"])))
        self._ec_inputs.add(key)
        return args, kwargs

    def _before_ode_simulate(self, args, kwargs):
        self._rhs_at_simulate = self.calls["field.rhs"]
        return args, kwargs

    def _observe_ode_simulate(self):
        self.rhs_in_simulate += self.calls["field.rhs"] - self._rhs_at_simulate

    @property
    def ec_distinct(self):
        return len(self._ec_inputs)

    # -- results ------------------------------------------------------------

    def wrapper_cost(self, n=20000):
        """Seconds a hot and a span-keeping wrapper add to one call.

        Timed on a no-op in a separate tracer, in the traced process itself,
        so it runs at the same host speed as the traced call it estimates.
        """
        def noop():
            return None

        probe = Tracer()
        hot = probe._wrap(noop, "probe.hot", False)
        span = probe._wrap(noop, "probe.span", True)

        def per_call(fn):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            return (time.perf_counter() - start) / n

        base = per_call(noop)
        return per_call(hot) - base, per_call(span) - base

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def root_duration(self):
        roots = [s for s in self.spans if s[0] == "cli.main" and s[3] is None]
        if len(roots) != 1:
            raise RuntimeError(f"expected one cli.main root span, got {len(roots)}")
        return roots[0][2] - roots[0][1]

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def span_records(self, origin):
        """Spans as dicts, times in seconds from *origin*."""
        return [
            {"run": self.run_id, "id": i, "name": name, "parent": parent,
             "start": start - origin, "end": end - origin}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
