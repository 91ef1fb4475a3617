"""Spans and counters at ghzdc's module boundaries, recorded from outside the package.

``install`` replaces each public function named in ``TRACED`` with a wrapper,
in every ghzdc namespace that holds it: a name imported into another module
(``measure`` into ``protocol`` and ``adversary``, say) is wrapped there too.
Each call appends one span ``(name, parent index, start ns, end ns)`` to a
list kept in memory; the caller writes the list out once the run has ended.
``summarize`` turns spans into call counts and self times, where a span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

TRACED = {
    "qstate": ("measure", "apply_gate", "apply_two_qubit", "collapse"),
    "protocol": (
        "round_rng", "run_session", "measure_decode", "security_check_round", "parity_accept_set",
    ),
    "adversary": (
        "monte_carlo_confirm", "analytic_success", "check_violation_rate", "attach_ancilla",
        "ancilla_attack_tradeoff",
    ),
    "cavity": ("validate_effective_model", "full_hamiltonian"),
    "cli": ("main", "resolve_config", "render_data"),
}

# lru_caches whose hits and misses are read from cache_info().
CACHES = {
    "protocol.parity_accept_set": ("protocol", "parity_accept_set"),
    "protocol.post_state_cache": ("protocol", "_honest_post_state"),
    "cavity.effective_unitary": ("cavity", "effective_unitary"),
}


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)`` counts."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot; children record its index as parent
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans) -> tuple[Counter, Counter]:
    """Call counts and self time (ns) per span name."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls, self_ns = Counter(), Counter()
    for index, (name, _, start, end) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += (end - start) - _covered(children.get(index, []), start, end)
    return calls, self_ns


def _counting_hooks(tracer: Tracer, modules: dict) -> dict:
    counters = tracer.counters
    accept_set = modules["protocol"].parity_accept_set
    seen_misses = [accept_set.cache_info().misses]

    def measure(args, kwargs, result):
        outcome, _ = result
        counters["qstate.measure.result_1"] += outcome.result == 1

    def parity_accept_set(args, kwargs, result):
        # A miss enumerates all 2^n basis combinations of n parties.
        misses = accept_set.cache_info().misses
        if misses > seen_misses[0]:
            n_parties = args[0] if args else kwargs.get("n_parties", 3)
            counters["protocol.parity_accept_set.combos"] += (misses - seen_misses[0]) * 2**n_parties
            seen_misses[0] = misses

    def validate_effective_model(args, kwargs, result):
        fock = args[1] if len(args) > 1 else kwargs["fock"]
        counters["cavity.dim_cubed"] += fock.dimension**3

    return {
        "qstate.measure": measure,
        "protocol.parity_accept_set": parity_accept_set,
        "cavity.validate_effective_model": validate_effective_model,
    }


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every function in ``TRACED``; ``modules`` maps layer name to module.

    Also wraps each entry of ``cli.RUNNERS`` as ``cli.runner``.  Returns each
    cache in ``CACHES`` with its cache_info() at install time, for ``cache_deltas``.
    """
    caches = {}
    for name, (layer, attr) in CACHES.items():
        cache = getattr(modules[layer], attr)
        caches[name] = (cache, cache.cache_info())
    namespaces = list(modules.values())
    hooks = _counting_hooks(tracer, modules)
    for layer, attrs in TRACED.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            original = getattr(modules[layer], attr)
            wrapper = tracer.wrap(name, original, hooks.get(name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
    runners = modules["cli"].RUNNERS
    for command, runner in runners.items():
        runners[command] = tracer.wrap("cli.runner", runner)
    return caches


def cache_deltas(caches: dict) -> dict[str, int]:
    """Hits and misses of each cache returned by ``install`` since it ran."""
    out = {}
    for name, (cache, before) in caches.items():
        now = cache.cache_info()
        out[f"{name}.hits"] = now.hits - before.hits
        out[f"{name}.misses"] = now.misses - before.misses
    return out
