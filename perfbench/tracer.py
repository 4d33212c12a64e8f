"""Span tracing of hadamard_iter from outside the package.

``Tracer.install`` replaces the public functions and methods of each module
with wrappers that record a span (id, name, parent, start, end, thread) per
call; nothing under ``src/`` changes. Spans are kept in memory, one flat
float array per thread, and ``derive`` turns them into the per-layer
metrics. A layer's self time is the duration of its spans minus the part of
each span its child spans cover. Objects that carry callables (objectives,
bifunctions, operators, operator sequences) are wrapped where the package
constructs them, so only objects built after ``install`` are traced.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import itertools
import sys
import threading
import time
from array import array

import numpy as np

FIELDS = 6  # id, name id, parent id, start, end, thread index

_RESOLVENT_SOLVES = ("resolvents.prox.closed", "resolvents.prox.descent",
                     "resolvents.lipschitz", "resolvents.equilibrium")
_FIXTURE_CALLS = ("fixtures.eval", "fixtures.gradient", "fixtures.closed_form",
                  "fixtures.field", "fixtures.bi_eval")


class _Buffer:
    __slots__ = ("data", "stack", "index")

    def __init__(self, index: int):
        self.data = array("d")
        self.stack = [-1]
        self.index = index


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._base = 0
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.attrs: dict[str, float] = collections.defaultdict(float)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.attrs[key] += value

    def wrap(self, name, fn, post=None):
        """``fn`` recorded as a span; ``name`` is a string or a function of
        the call's arguments; ``post(result, args)`` may replace the result."""
        if getattr(fn, "_bench_traced", False):
            return fn
        fixed = None if callable(name) else self._nid(name)
        choose = name if callable(name) else None
        ids, local, clock, nid_of = self._ids, self._local, time.perf_counter, self._nid
        new_buffer, solver_error = self._buffer, self._solver_error

        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            nid = fixed if choose is None else nid_of(choose(args))
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                solver_error(nid, err)
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.data.extend((sid, nid, parent, t0, t1, buf.index))
            return result if post is None else post(result, args)

        wrapper._bench_traced = True
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _solver_error(self, nid: int, err: Exception) -> None:
        from hadamard_iter.errors import SolverError

        if isinstance(err, SolverError) and self.names[nid] in _RESOLVENT_SOLVES:
            self.add("resolvents.solver_errors", 1)

    def current(self) -> int:
        try:
            return self._local.buf.stack[-1]
        except AttributeError:
            return -1

    def reset(self) -> None:
        """Drop every span and counter recorded so far (stacks must be empty)."""
        for buf in self._buffers:
            del buf.data[:]
        self.attrs.clear()
        self._base = next(self._ids) + 1  # the next span id

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        existed = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), existed))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, post=None) -> None:
        """Replace ``module.attr`` and every ``from ... import`` binding of it
        in the package's modules."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, post)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "hadamard_iter" or mod_name.startswith("hadamard_iter.")) \
                    and vars(mod).get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name) -> None:
        if attr in vars(cls):
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, value, existed in reversed(self._patches):
            if existed:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def install(self) -> None:
        import hadamard_iter.cli as cli
        from hadamard_iter import diagnostics, fixtures, geometry, operators, resolvents, \
            schedules, schemes

        # geometry: the public methods of the model spaces
        for method, label in (("distance", "distance"), ("combine", "combine"),
                              ("project", "project"), ("quasilin", "quasilin")):
            self.patch_method(geometry.ModelSpace, method, "geometry." + label)
        for cls in (geometry.Euclidean, geometry.Hyperboloid, geometry.Spider):
            self.patch_method(cls, "point", "geometry.point")
            for method in ("log_map", "exp_map", "tangent_norm"):
                self.patch_method(cls, method, "geometry.tangent")
            for method in ("sample_point", "perturb"):
                self.patch_method(cls, method, "geometry.sample")

        # fixtures: wrap the callables of every objective and bifunction built
        wrap_obj = lambda obj, args: self._wrap_objective(obj)  # noqa: E731
        wrap_bif = lambda obj, args: self._wrap_bifunction(obj)  # noqa: E731
        self.patch_function(fixtures, "objective_fixture", "fixtures.build", wrap_obj)
        self.patch_function(fixtures, "bifunction_fixture", "fixtures.build", wrap_bif)
        for builder in ("quadratic", "dist2_to_set", "plateau_quartic", "expanding_quadratic"):
            self.patch_function(fixtures, builder, "fixtures.build", wrap_obj)
        for builder in ("rotation_vi", "min_quadratic"):
            self.patch_function(fixtures, builder, "fixtures.build", wrap_bif)

        # operators: wrap apply of every operator and factory of every sequence
        wrap_op = lambda op, args: self._wrap_field(op, "apply", "operators.apply")  # noqa: E731
        wrap_seq = lambda seq, args: self._wrap_field(  # noqa: E731
            seq, "factory", "operators.factory")
        for fn in ("catalog_operator", "mann_operator", "ishikawa_operator"):
            self.patch_function(operators, fn, "operators.build", wrap_op)
        for fn in ("mann_sequence", "ishikawa_sequence"):
            self.patch_function(operators, fn, "operators.build", wrap_seq)
        for fn in ("convex_resolvent_operator", "lipschitz_resolvent_operator",
                   "equilibrium_resolvent_operator"):
            self.patch_function(resolvents, fn, "operators.build", wrap_op)
        self.patch_function(resolvents, "resolvent_sequence", "operators.build", wrap_seq)

        # resolvents: the solves themselves; the names chosen per call are
        # registered here, so that worker threads only read the name table
        for name in _RESOLVENT_SOLVES:
            self._nid(name)
        self.patch_function(
            resolvents, "convex_resolvent",
            lambda args: ("resolvents.prox.closed" if args[0].closed_form_resolvent is not None
                          else "resolvents.prox.descent"))
        self.patch_function(resolvents, "lipschitz_resolvent_detailed", "resolvents.lipschitz",
                            self._count_lipschitz)
        self.patch_function(resolvents, "equilibrium_resolvent", "resolvents.equilibrium")

        # schedules and schemes
        self.patch_method(schedules.Schedule, "__call__", "schedules.call")
        self.patch_function(schemes, "build_scheme", "schemes.build")
        self.patch_method(schemes.BuiltScheme, "run", "schemes.run")
        for fn in ("iterate_sequence", "halpern_iterate"):
            self.patch_function(schemes, fn, "schemes.engine", self._count_engine)

        # diagnostics: the public checkers and the collector's per-check call
        for fn in ("check_space_axioms", "check_quasi_firm", "check_sqn_inequality",
                   "check_nested_fixed_sets", "check_fejer", "check_halpern_target"):
            self.patch_function(diagnostics, fn, "diagnostics.check", self._count_samples)
        self.patch_method(diagnostics._Collector, "check", "diagnostics.collect")

        # cli: entry point, commands, config parsing, file writes, sweep pool
        self.patch_function(cli, "main", "cli.main")
        for fn in ("cmd_run", "cmd_check", "cmd_sweep"):
            self.patch_function(cli, fn, "cli.command")
        self.patch_function(cli, "parse_run_config", "cli.parse")
        self.patch_function(cli, "_atomic_write", "cli.write")
        self._set(concurrent.futures, "ThreadPoolExecutor", self._pool_class())

    # -- object wrappers -----------------------------------------------------

    def _wrap_field(self, obj, field, name):
        fn = getattr(obj, field)
        if fn is None or getattr(fn, "_bench_traced", False):
            return obj
        return dataclasses.replace(obj, **{field: self.wrap(name, fn)})

    def _wrap_objective(self, f):
        for field, name in (("eval", "fixtures.eval"), ("gradient", "fixtures.gradient"),
                            ("closed_form_resolvent", "fixtures.closed_form")):
            f = self._wrap_field(f, field, name)
        return f

    def _wrap_bifunction(self, b):
        b = self._wrap_field(b, "eval", "fixtures.bi_eval")
        s = b.structure
        if hasattr(s, "field"):
            b = dataclasses.replace(b, structure=self._wrap_field(s, "field", "fixtures.field"))
        elif hasattr(s, "objective"):
            b = dataclasses.replace(b, structure=dataclasses.replace(
                s, objective=self._wrap_objective(s.objective)))
        return b

    # -- counters read from results --------------------------------------------

    def _count_lipschitz(self, result, args):
        self.add("resolvents.lipschitz_inner", result[1])
        return result

    def _count_engine(self, trace, args):
        self.add("schemes.outer_iters", trace.summary.iterations_run)
        self.add("schemes.trace_steps", len(trace.steps))
        return trace

    def _count_samples(self, report, args):
        self.add("diagnostics.samples", report.samples_tested)
        return report

    def _pool_class(self):
        tracer = self
        base = concurrent.futures.ThreadPoolExecutor
        cell_nid = self._nid("cli.cell")

        class TracedPool(base):
            """Records the worker count, each cell as a span parented to the
            submitting span, each cell's wait from submit to start and its
            thread's CPU time."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.add("cli.sweep.workers", self._max_workers)
                tracer.add("cli.sweep.pools", 1)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                submitted = time.perf_counter()
                with tracer._lock:
                    if "cli.sweep.first_submit" not in tracer.attrs:
                        tracer.attrs["cli.sweep.first_submit"] = submitted

                def cell(*a, **kw):
                    try:
                        buf = tracer._local.buf
                    except AttributeError:
                        buf = tracer._buffer()
                    sid = next(tracer._ids)
                    buf.stack.append(sid)
                    t0, cpu0 = time.perf_counter(), time.thread_time()
                    tracer.add("cli.sweep.wait_s", t0 - submitted)
                    try:
                        return fn(*a, **kw)
                    finally:
                        t1 = time.perf_counter()
                        tracer.add("cli.sweep.cell_cpu_s", time.thread_time() - cpu0)
                        buf.stack.pop()
                        buf.data.extend((sid, cell_nid, parent, t0, t1, buf.index))

                return super().submit(cell, *args, **kwargs)

        return TracedPool

    # -- derivation ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns sorted by id, ids renumbered from 0."""
        parts = [np.frombuffer(buf.data, dtype=float).reshape(-1, FIELDS)
                 for buf in self._buffers if len(buf.data)]
        rows = np.concatenate(parts) if parts else np.zeros((0, FIELDS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        sid = rows[:, 0].astype(np.int64) - self._base
        parent = rows[:, 2].astype(np.int64)
        parent = np.where(parent >= self._base, parent - self._base, -1)
        if len(sid) and not np.array_equal(sid, np.arange(len(sid))):
            raise RuntimeError("span ids are not contiguous; a span was lost")
        return {"name": rows[:, 1].astype(np.int64), "parent": parent,
                "start": rows[:, 3], "end": rows[:, 4], "thread": rows[:, 5].astype(np.int64)}

    def derive(self, sp: dict[str, np.ndarray]) -> dict[str, float]:
        names = np.array(self.names + ["<none>"], dtype=object)
        name_idx = {n: i for i, n in enumerate(self.names)}
        nm, par, t0, t1 = sp["name"], sp["parent"], sp["start"], sp["end"]
        n = len(nm)
        dur = t1 - t0
        layer_of_name = np.array([s.split(".")[0] for s in names], dtype=object)
        layer = layer_of_name[nm] if n else np.array([], dtype=object)
        has_parent = par >= 0
        pidx = np.where(has_parent, par, 0)
        pname = np.where(has_parent, nm[pidx] if n else nm, len(self.names))
        player = layer_of_name[pname] if n else np.array([], dtype=object)

        # children on the parent's thread are nested and disjoint, so their
        # durations add; children on other threads (sweep cells) may overlap,
        # so those parents get the union of their children's intervals
        covered = np.zeros(n)
        same = has_parent & (sp["thread"] == sp["thread"][pidx])
        np.add.at(covered, par[same], dur[same])
        cross = np.flatnonzero(has_parent & ~same)
        for p in np.unique(par[cross]):
            kids = cross[par[cross] == p]
            covered[p] += _union_length(t0[kids], t1[kids])
        self_t = np.maximum(dur - covered, 0.0)

        def ids(*wanted):
            return [name_idx[w] for w in wanted if w in name_idx]

        def mask(*wanted):
            return np.isin(nm, ids(*wanted))

        def count(*wanted):
            return int(mask(*wanted).sum())

        def layer_self(name):
            return float(self_t[layer == name].sum())

        def under(child, parents):
            return int((mask(child) & np.isin(pname, ids(*parents))).sum())

        a = self.attrs
        m: dict[str, float] = {}

        geometry_calls = int((layer == "geometry").sum())
        for label in ("distance", "combine", "project", "point", "tangent", "sample", "quasilin"):
            m[f"geometry.{label}.calls"] = count(f"geometry.{label}")
        m["geometry.self_s"] = layer_self("geometry")
        m["geometry.us_per_call"] = _ratio(m["geometry.self_s"] * 1e6, geometry_calls)

        m["schemes.outer_iters"] = a.get("schemes.outer_iters", 0.0)
        m["schemes.trace_steps"] = a.get("schemes.trace_steps", 0.0)
        m["schemes.self_s"] = layer_self("schemes")
        m["schemes.us_per_iter"] = _ratio(m["schemes.self_s"] * 1e6, m["schemes.outer_iters"])

        m["operators.factory.calls"] = count("operators.factory")
        m["operators.apply.calls"] = count("operators.apply")
        m["operators.self_s"] = layer_self("operators")

        solves = mask(*_RESOLVENT_SOLVES) & (player != "resolvents")
        m["resolvents.calls"] = int(solves.sum())
        m["resolvents.us_per_call"] = _ratio(float(dur[solves].sum()) * 1e6, m["resolvents.calls"])
        m["resolvents.self_s"] = layer_self("resolvents")
        m["resolvents.recheck.calls"] = under("fixtures.gradient", ["resolvents.prox.closed"])
        descent_grads = under("fixtures.gradient", ["resolvents.prox.descent"])
        m["resolvents.inner_steps"] = (under("fixtures.field", ["resolvents.equilibrium"])
                                       + a.get("resolvents.lipschitz_inner", 0.0)
                                       + descent_grads)
        m["resolvents.inner_steps_per_call"] = _ratio(m["resolvents.inner_steps"],
                                                      m["resolvents.calls"])
        m["resolvents.verify.evals"] = under("fixtures.bi_eval", ["resolvents.equilibrium"])
        m["resolvents.verify_s"], m["resolvents.verify.self_s"] = _verify_phase(
            nm, par, t0, t1, dur, ids("resolvents.equilibrium"),
            ids("fixtures.field", *_RESOLVENT_SOLVES))
        # each descent iteration takes one gradient; each prox adds one more
        # for its final optimality recheck
        descent_iters = descent_grads - count("resolvents.prox.descent")
        m["resolvents.armijo.accept_ratio"] = _ratio(
            descent_iters, under("fixtures.eval", ["resolvents.prox.descent"]))
        m["resolvents.solver_errors"] = a.get("resolvents.solver_errors", 0.0)

        m["fixtures.calls"] = count(*_FIXTURE_CALLS)
        m["fixtures.self_s"] = float(self_t[mask(*_FIXTURE_CALLS)].sum())

        m["schedules.calls"] = count("schedules.call")

        m["diagnostics.samples"] = a.get("diagnostics.samples", 0.0)
        m["diagnostics.checks"] = count("diagnostics.collect")
        m["diagnostics.self_s"] = layer_self("diagnostics")

        cells = mask("cli.cell")
        m["cli.parse.calls"] = count("cli.parse")
        m["cli.parse_s"] = float(dur[mask("cli.parse")].sum())
        m["cli.write_s"] = float(dur[mask("cli.write")].sum())
        m["cli.self_s"] = layer_self("cli")
        m["cli.sweep.cells"] = int(cells.sum())
        workers = a.get("cli.sweep.workers", 0.0) / max(1.0, a.get("cli.sweep.pools", 0.0))
        m["cli.sweep.workers"] = workers
        m["cli.sweep.wait_s"] = a.get("cli.sweep.wait_s", 0.0)
        pool_wall = (float(t1[cells].max()) - a["cli.sweep.first_submit"]) if cells.any() else 0.0
        # a cell's run time is its thread's CPU time: wall time would also
        # count the time the worker waits for the interpreter lock
        m["cli.sweep.parallel_eff"] = _ratio(a.get("cli.sweep.cell_cpu_s", 0.0),
                                             pool_wall * workers)

        m["trace.spans"] = n
        return m


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _union_length(starts, ends) -> float:
    total, reached = 0.0, -np.inf
    for a, b in sorted(zip(starts, ends)):
        total += max(0.0, b - max(a, reached))
        reached = max(reached, b)
    return total


def _verify_phase(nm, par, t0, t1, dur, eq_ids, solver_ids) -> tuple[float, float]:
    """Time each equilibrium solve spends after its inner solver has
    finished, which is where it verifies the resolvent inequality, and that
    time minus the spans (bifunction evals, geometry) it calls."""
    eq = np.isin(nm, eq_ids)
    if not eq.any():
        return 0.0, 0.0
    pidx = np.where(par >= 0, par, 0)
    kid = (par >= 0) & eq[pidx]
    solver_kid = kid & np.isin(nm, solver_ids)
    phase_start = t0.copy()  # a solve without a traced inner solver verifies throughout
    np.maximum.at(phase_start, par[solver_kid], t1[solver_kid])
    in_phase = kid & (t0 >= phase_start[pidx])
    covered = np.zeros(len(nm))
    np.add.at(covered, par[in_phase], dur[in_phase])
    phase = np.where(eq, t1 - phase_start, 0.0)
    return float(phase.sum()), float(np.maximum(phase - covered, 0.0).sum())
