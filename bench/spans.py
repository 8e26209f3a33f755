"""Span tracer that wraps lazycops' public functions from outside the package.

`Tracer.install()` replaces each target in `TARGETS` by a timing wrapper at
every place that binds it: the defining module, every other `lazycops`
module that imported the name, and, for methods, every subclass that
overrides the method.  Each wrapper records one span per outermost call (a
recursive call of the same name is folded into its caller).  Spans are
aggregated per name on the fly instead of being stored one by one, because
a `play` pass makes about a million calls.  Stacks and aggregates are kept
per thread, since experiment trials run on pool threads, and merged by
`Tracer.metrics()`.

A span's self time is its duration minus the time of the traced spans it
called on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import resource
import statistics
import sys
import threading
from array import array
from time import perf_counter, thread_time

# (module, attribute path); the span is named "<module>.<attribute path>".
TARGETS = (
    ("graph", "count_paths"),
    ("graph", "kth_neighborhood"),
    ("graph", "count_cycles_through_edge"),
    ("graph", "Graph.distances_from"),
    ("graph", "find_balanced_separator"),
    ("graph", "components_without"),
    ("graph", "component_of"),
    ("graph", "Graph.induced_subgraph"),
    ("graph", "gen_gnp"),
    ("graph", "parse_graph"),
    ("solver", "solve_lazy"),
    ("solver", "solve_classic"),
    ("solver", "optimal_move"),
    ("solver", "SolveResult.distance"),
    ("game", "play"),
    ("game", "apply_move"),
    ("game", "GameRecord.to_json"),
    ("strategies", "GreedyCopStrategy.move"),
    ("strategies", "SeparatorCopStrategy.__init__"),
    ("strategies", "SeparatorCopStrategy.move"),
    ("gnp", "gnp_robber_move"),
    ("potential", "hypercube_robber_move"),
    ("potential", "potential_at"),
    ("experiments", "run_trial"),
    ("experiments", "run_experiment"),
    ("expansion", "verify_expansion"),
    ("cli", "main"),
)

_SOLVES = ("solver.solve_lazy", "solver.solve_classic")
_DISTANCES = "graph.Graph.distances_from"
_HYPERCUBE_MOVE = "potential.hypercube_robber_move"
_EXACT = "potential.potential_at"


class _Frame:
    __slots__ = ("name", "child_s", "exact")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.exact = False


class _Stats:
    __slots__ = ("calls", "self_s", "durations", "states", "rss_kb", "cpu_s",
                 "worker_s", "exact_moves", "pairs")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")
        self.states = 0          # solver spans: states labelled
        self.rss_kb = 0          # solver spans: ru_maxrss growth
        self.cpu_s = 0.0         # run_trial: thread CPU time
        self.worker_s = 0.0      # run_experiment: duration x workers
        self.exact_moves = 0     # hypercube moves that called potential_at
        self.pairs = set()       # distances_from: distinct (graph, source)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []     # the stats dict of every thread seen
        self._graph_ids: dict = {}   # id(Graph) -> serial of its construction
        self._serials = itertools.count()

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.active, local.stats
        except AttributeError:
            local.stack, local.active, local.stats = [], set(), {}
            with self._lock:
                self._threads.append(local.stats)
            return local.stack, local.active, local.stats

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        probe_rss = name in _SOLVES
        probe_cpu = name == "experiments.run_trial"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, active, stats = tracer._state()
            if name in active:
                return fn(*args, **kwargs)
            if name == _EXACT:
                for frame in reversed(stack):
                    if frame.name == _HYPERCUBE_MOVE:
                        frame.exact = True
                        break
            frame = _Frame(name)
            stack.append(frame)
            active.add(name)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if probe_rss else 0
            cpu0 = thread_time() if probe_cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active.discard(name)
                if stack:
                    stack[-1].child_s += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = _Stats()
                rec.calls += 1
                rec.self_s += dt - frame.child_s
                rec.durations.append(dt)
                if probe_cpu:
                    rec.cpu_s += thread_time() - cpu0
            if probe_rss:
                rec.states += result.states
                rec.rss_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            elif name == _DISTANCES:
                rec.pairs.add((tracer._graph_ids.get(id(args[0])), args[1]))
            elif name == _HYPERCUBE_MOVE:
                rec.exact_moves += frame.exact
            elif name == "experiments.run_experiment":
                rec.worker_s += dt * max(1, args[0].workers)
            return result

        return span

    def install(self, package) -> None:
        """Patch every target; raise if one no longer exists."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module_name, path in TARGETS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, name)
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        self._number_graphs(sys.modules[f"{package.__name__}.graph"].Graph)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__name__} defines no {attr}")
        todo = [cls]
        while todo:
            c = todo.pop()
            todo.extend(c.__subclasses__())
            if attr in vars(c):
                setattr(c, attr, self._wrap(name, vars(c)[attr]))

    def _number_graphs(self, graph_cls) -> None:
        """Give every Graph a construction serial, so distinct (graph, source)
        pairs stay distinct when a freed graph's id is reused."""
        original = graph_cls.__init__
        ids, serials = self._graph_ids, self._serials

        @functools.wraps(original)
        def init(g, *args, **kwargs):
            original(g, *args, **kwargs)
            ids[id(g)] = next(serials)

        graph_cls.__init__ = init

    # -- results -------------------------------------------------------------

    def _merged(self) -> dict:
        out: dict = {}
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for name, rec in stats.items():
                acc = out.setdefault(name, _Stats())
                acc.calls += rec.calls
                acc.self_s += rec.self_s
                acc.durations.extend(rec.durations)
                acc.states += rec.states
                acc.rss_kb += rec.rss_kb
                acc.cpu_s += rec.cpu_s
                acc.worker_s += rec.worker_s
                acc.exact_moves += rec.exact_moves
                acc.pairs |= rec.pairs
        return out

    def metrics(self) -> dict:
        """Every per-span figure plus the derived layer ratios, by name."""
        merged = self._merged()
        empty = _Stats()
        out = {}
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            rec = merged.get(name, empty)
            durations = sorted(rec.durations)
            out[f"{name}.calls"] = rec.calls
            out[f"{name}.n"] = len(durations)
            out[f"{name}.self_s"] = rec.self_s
            p50 = statistics.median(durations) if durations else 0.0
            p99 = _p99(durations)
            out[f"{name}.p50_s"] = p50
            out[f"{name}.p50_us"] = p50 * 1e6
            out[f"{name}.p99_us"] = p99 * 1e6

        def get(name):
            return merged.get(name, empty)

        lazy, classic = get("solver.solve_lazy"), get("solver.solve_classic")
        out["solver.solve_lazy.states_per_s"] = _ratio(lazy.states, sum(lazy.durations))
        out["solver.rss_growth_mb"] = (lazy.rss_kb + classic.rss_kb) / 1024.0
        out["solver.SolveResult.distance.per_move"] = _ratio(
            get("solver.SolveResult.distance").calls, get("solver.optimal_move").calls)
        dist = get(_DISTANCES)
        out[f"{_DISTANCES}.reuse_ratio"] = 1.0 - _ratio(len(dist.pairs), dist.calls) if dist.calls else 0.0
        cube = get(_HYPERCUBE_MOVE)
        out["potential.exact_fallback_ratio"] = _ratio(cube.exact_moves, cube.calls)
        out["experiments.parallel_efficiency"] = _ratio(
            get("experiments.run_trial").cpu_s, get("experiments.run_experiment").worker_s)
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _p99(sorted_values) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100)[98]
