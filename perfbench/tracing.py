"""Spans and counters recorded around calls into the library's modules.

The library has no tracing of its own, so the tracer swaps module
attributes for timed wrappers while a traced sweep runs and puts the
originals back afterwards. Every reference to a wrapped function in the
package's modules is swapped, so ``from .stats import x`` copies are caught
as well as calls through the module.

Spans around the harness and ``engine.run`` are kept in memory as
parallel arrays: name, start, end and the index of the enclosing span (-1
for none). ``stats`` and ``model`` calls, a few hundred thousand a sweep,
are timed one by one but summed per enclosing span, as calls and
nanoseconds. Policy ``next_action`` and ``observe`` calls run in the
millions, so a proxy sums their time per run instead.
"""

from __future__ import annotations

import csv
import itertools
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from checker import RegretReplay

_now = time.perf_counter_ns

# (module, function) of every call the tracer times, and whether each call
# gets a span of its own (True) or is summed under the enclosing span.
TRACED_CALLS = (
    ("harness", "run_experiment", True),
    ("harness", "run_one", True),
    ("harness", "emit_outputs", True),
    ("engine", "run", True),
    ("stats", "update_capacity_bounds", False),
    ("stats", "klucb_at_least", False),
    ("stats", "klucb_index", False),
    ("stats", "means_separated", False),
    ("model", "oracle", False),
)


class TimedPolicy:
    """Forwards to a policy and adds the time of its engine calls to ``acc``.

    ``acc`` is ``[nanoseconds, calls]``. Attribute reads fall through to the
    policy, because the engine reads ``phase``.
    """

    __slots__ = ("_policy", "_acc")

    def __init__(self, policy, acc: list[int]) -> None:
        self._policy = policy
        self._acc = acc

    def next_action(self, t: int) -> int:
        start = _now()
        arm = self._policy.next_action(t)
        acc = self._acc
        acc[0] += _now() - start
        acc[1] += 1
        return arm

    def observe(self, obs) -> None:
        start = _now()
        self._policy.observe(obs)
        acc = self._acc
        acc[0] += _now() - start
        acc[1] += 1

    def __getattr__(self, name):
        return getattr(self._policy, name)


@dataclass
class RunRecord:
    """One traced ``engine.run``: its cost and where its regret came from."""

    algorithm: str
    player_slots: int
    run_ns: int
    policy_ns: int
    policy_calls: int
    probe_ns: int
    regret: float
    phase_slots: Counter = field(default_factory=Counter)
    phase_regret: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    trace: object = None


def phase_split(events, gaps: list[float]) -> tuple[Counter, Counter]:
    """Player 0's slots and regret per phase, from ``RunTrace.phase_events``.

    The engine reads ``phase`` after a slot's ``observe``, so an event at
    slot t starts the phase at slot t + 1; slot 0 belongs to the first event.
    """
    cum = [0.0, *itertools.accumulate(gaps)]
    slots, regret = Counter(), Counter()
    starts = [0] + [t + 1 for t, _ in events[1:]]
    ends = starts[1:] + [len(gaps)]
    for (_, phase), start, end in zip(events, starts, ends):
        slots[phase] += end - start
        regret[phase] += cum[end] - cum[start]
    return slots, regret


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._open: list[int] = [-1]
        self.calls: Counter = Counter()
        self.changed: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.calls_in_span: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        self.runs: list[RunRecord] = []
        self.algorithm = "unknown"
        self._last_profile: object = None
        self._swapped: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1])
        self.span_end.append(0)
        self._open.append(index)
        self.span_start.append(_now())
        return index

    def _end(self, index: int, name: str) -> int:
        end = _now()
        self._open.pop()
        self.span_end[index] = end
        took = end - self.span_start[index]
        self.calls[name] += 1
        self.busy_ns[name] += took
        return took

    def _spanned(self, name: str, fn):
        begin, finish = self._begin, self._end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index, name)

        return traced

    def _summed(self, name: str, fn):
        calls, busy, in_span, open_spans = self.calls, self.busy_ns, self.calls_in_span, self._open

        def traced(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _now() - start
                calls[name] += 1
                busy[name] += took
                cell = in_span[open_spans[-1], name]
                cell[0] += 1
                cell[1] += took

        return traced

    def write(self, out_dir) -> None:
        """Write spans.csv and calls.csv (summed calls per enclosing span)."""
        with open(out_dir / "spans.csv", "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "name", "start_ns", "end_ns", "parent"])
            for i, (n, s, e, p) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                out.writerow([i, self.names[n], s, e, p])
        with open(out_dir / "calls.csv", "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "name", "calls", "total_ns"])
            for (span, name), (calls, ns) in sorted(self.calls_in_span.items()):
                out.writerow([span, name, calls, ns])

    # -- wrappers with counters ------------------------------------------------

    def _wrap_run_one(self, fn):
        traced = self._spanned("harness.run_one", fn)

        def run_one(scenario, algorithm, seed):
            self.algorithm = algorithm
            return traced(scenario, algorithm, seed)

        return run_one

    def _wrap_update_capacity_bounds(self, fn):
        traced = self._summed("stats.update_capacity_bounds", fn)

        def update_capacity_bounds(stats, arm, bounds, *args, **kwargs):
            before = bounds.lower[arm], bounds.upper[arm]
            traced(stats, arm, bounds, *args, **kwargs)
            if (bounds.lower[arm], bounds.upper[arm]) != before:
                self.changed["stats.update_capacity_bounds"] += 1

        return update_capacity_bounds

    def _wrap_oracle(self, fn):
        traced = self._summed("model.oracle", fn)

        def oracle(*args, **kwargs):
            result = traced(*args, **kwargs)
            # Besides the engine's call at the start of a run, only the DPE
            # leader calls oracle, so the previous call of this run is that
            # player's previous call.
            if result.profile.counts != self._last_profile:
                self.changed["model.oracle"] += 1
            self._last_profile = result.profile.counts
            return result

        return oracle

    def _wrap_engine_run(self, fn):
        def run(policy_factory, spec, *, checkpoints=(), probe=None):
            acc = [0, 0]
            probe_ns = [0]
            replay = RegretReplay(spec.means, spec.capacities, spec.num_players)

            def factory(player_id, env):
                return TimedPolicy(policy_factory(player_id, env), acc)

            def timed_probe(t, policies, counts):
                start = _now()
                replay(t, policies, counts)
                if probe is not None:
                    probe(t, policies, counts)
                probe_ns[0] += _now() - start

            self._last_profile = None
            index = self._begin("engine.run")
            try:
                trace = fn(factory, spec, checkpoints=checkpoints, probe=timed_probe)
            finally:
                took = self._end(index, "engine.run")
            record = RunRecord(
                algorithm=self.algorithm,
                player_slots=spec.horizon * spec.num_players,
                run_ns=took,
                policy_ns=acc[0],
                policy_calls=acc[1],
                probe_ns=probe_ns[0],
                regret=sum(replay.gaps),
                problems=replay.check(
                    trace.checkpoints, trace.checkpoint_regret, trace.optimal_mask
                ),
                trace=trace,
            )
            record.phase_slots, record.phase_regret = phase_split(
                trace.phase_events, replay.gaps
            )
            self.runs.append(record)
            return trace

        return run

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper."""
        pkg = self.package.__name__
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        special = {
            "harness.run_one": self._wrap_run_one,
            "engine.run": self._wrap_engine_run,
            "stats.update_capacity_bounds": self._wrap_update_capacity_bounds,
            "model.oracle": self._wrap_oracle,
        }
        for module, func, spanned in TRACED_CALLS:
            name = f"{module}.{func}"
            original = getattr(getattr(self.package, module), func, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            if name in special:
                wrapper = special[name](original)
            else:
                wrapper = (self._spanned if spanned else self._summed)(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._swapped.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
