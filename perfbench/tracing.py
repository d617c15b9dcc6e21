"""Per-layer spans and counts around copulamix's public functions.

While a traced round runs, every traced function is replaced, in every
copulamix module that holds a reference to it, by a wrapper that records a
span.  A span's self time is its duration minus the time of the spans it
caused, so nested layers are not counted twice.  The wrappers also count work
(elements, draws, calls) at the same boundaries.  Counts are computed, never
timed, so two traced rounds of the same work give the same counts.

Nothing under ``src/`` is modified: the originals are put back after each
traced round, and untraced rounds run without these wrappers.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from copulamix import chains, copulas, mixing, normal, quadrature, rng, robust, rootfind, study

LEAF_FAMILIES = (
    copulas.Independence, copulas.Comonotone, copulas.Countermonotone,
    copulas.Fgm, copulas.Mardia, copulas.Gaussian, copulas.Amh,
)
LEAF_METHODS = ("cdf_raw", "density_raw", "cond_u_raw", "cond_v_raw")

# counts that must repeat exactly across traced rounds
REPEATING_COUNTS = (
    "chains.steps", "copulas.leaf_evals", "rootfind.f_evals",
    "normal.ppf_elems", "quadrature.unit_rule_calls",
)


class Tracer:
    """Span stack, self times and counters for one or more traced rounds."""

    def __init__(self, step_names: dict):
        self.step_names = step_names  # repr(copula) -> name its step time is reported under
        self.active = False
        self._stack: list = []
        self._leaf_depth = 0
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.chain_ns: Counter = Counter()
        self.chain_steps: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, elapsed: int, children: int) -> None:
        self.self_ns[name] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed

    def _bookkeeping(self, hook, *args) -> None:
        """Run a counting hook outside every span and every count."""
        t0 = perf_counter_ns()
        self.active = False
        try:
            hook(*args)
        finally:
            self.active = True
        if self._stack:  # charge the hook to no layer
            self._stack[-1][0] += perf_counter_ns() - t0

    def wrap(self, name: str, fn, after=None, before=None):
        """Wrapper recording a span ``name`` around ``fn``.

        ``before(args, kwargs)`` may replace the arguments passed on (to
        count calls into a callback); ``after(args, kwargs, result,
        elapsed_ns)`` sees the caller's own arguments and counts work once
        the span has closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            call_args, call_kwargs = (args, kwargs) if before is None else before(args, kwargs)
            frame = [0]
            tracer._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*call_args, **call_kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                tracer._stack.pop()
                tracer._close(name, elapsed, frame[0])
            if after is not None:
                tracer._bookkeeping(after, args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn):
        """Span for a leaf-family evaluation; nested leaf calls count once."""
        tracer = self
        inner = self.wrap("copulas.leaf", fn, after=self._count_leaf)

        def leaf(*args, **kwargs):
            if not tracer.active or tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._leaf_depth -= 1

        return leaf

    # -- counting hooks ----------------------------------------------------

    def _count_leaf(self, args, kwargs, result, elapsed):
        self.counts["copulas.leaf_evals"] += int(np.size(result))

    def _count_stream(self, args, kwargs, result, elapsed):
        self.counts["rng.stream_calls"] += 1

    def _count_draws(self, args, kwargs, result, elapsed):
        self.counts["rng.draws"] += int(np.size(result))

    def _count_ppf(self, args, kwargs, result, elapsed):
        self.counts["normal.ppf_calls"] += 1
        self.counts["normal.ppf_elems"] += int(np.size(result))

    def _count_f(self, args, kwargs):
        f = args[0]

        def counted(v):
            out = f(v)
            self.counts["rootfind.f_evals"] += int(np.size(out))
            return out

        return (counted,) + tuple(args[1:]), kwargs

    def _count_root(self, args, kwargs, result, elapsed):
        f, target = args[0], args[1]
        tol = args[3] if len(args) > 3 else kwargs.get("tol", rootfind.DEFAULT_TOL)
        resid = np.abs(f(result) - np.asarray(target, dtype=float))
        self.counts["rootfind.calls"] += 1
        self.counts["rootfind.unconverged"] += int(np.count_nonzero(~(resid <= tol)))

    def _count_chain(self, args, kwargs, result, elapsed):
        c, n, seeds = args[0], args[1], args[2]
        rows = len(seeds)
        steps = rows * max(int(n) - 1, 0)
        self.counts["chains.calls"] += 1
        self.counts["chains.rows"] += rows
        self.counts["chains.steps"] += steps
        name = self.step_names.get(repr(c))
        if name is not None:
            self.chain_ns[name] += elapsed
            self.chain_steps[name] += steps

    def _count_robust(self, args, kwargs, result, elapsed):
        self.counts["robust.calls"] += 1

    def _count_rule(self, args, kwargs, result, elapsed):
        self.counts["quadrature.unit_rule_calls"] += 1

    def _count_grid(self, args, kwargs, result, elapsed):
        m = int(args[1])
        self.counts["copulas.density_grid_calls"] += 1
        self.counts["copulas.density_grid_points"] += m * m

    def _count_extrema(self, args, kwargs, result, elapsed):
        self.counts["mixing.density_extrema_calls"] += 1

    def _count_figure(self, args, kwargs, result, elapsed):
        self.counts["study.bytes_written"] += sum(p.stat().st_size for p in result)

    def _count_json(self, args, kwargs, result, elapsed):
        self.counts["study.bytes_written"] += Path(args[1]).stat().st_size

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """(span name, original, after, before, skip home module) per traced function."""
        return [
            ("rng.stream", rng.stream, self._count_stream, None, False),
            ("rng.open_uniform", rng.open_uniform, self._count_draws, None, False),
            ("rng.derive_seed", rng.derive_seed, None, None, False),
            ("normal.ppf", normal.norm_ppf, self._count_ppf, None, False),
            # norm_ppf calls norm_cdf inside its own module: that time is ppf time
            ("normal.cdf", normal.norm_cdf, None, None, True),
            ("rootfind.invert", rootfind.invert_increasing, self._count_root, self._count_f, False),
            ("chains.matrix", chains.uniform_chain_matrix, self._count_chain, None, False),
            ("chains.sample", chains.sample_chain, None, None, False),
            ("chains.marginal", chains.apply_marginal, None, None, False),
            ("chains.iid_normal", chains.sample_iid_normal, None, None, False),
            ("chains.csv", chains.chain_to_csv, None, None, False),
            ("robust.mean", robust.robust_mean, self._count_robust, None, False),
            ("robust.replicate", robust.replicate_robust_means, None, None, False),
            ("quadrature.unit_rule", quadrature.unit_rule, self._count_rule, None, False),
            ("copulas.fold", copulas.fold, None, None, False),
            ("copulas.n_fold", copulas.n_fold, None, None, False),
            ("copulas.density_grid", copulas.density_grid, self._count_grid, None, False),
            ("copulas.rectangle", copulas.rectangle_probability, None, None, False),
            ("mixing.classify", mixing.classify, None, None, False),
            ("mixing.lag_report", mixing.lag_report, None, None, False),
            ("mixing.density_extrema", mixing.density_extrema, self._count_extrema, None, False),
            ("mixing.corner_scan", mixing.corner_divergence_scan, None, None, False),
            ("mixing.psi_prime", mixing.psi_prime_lower_bound, None, None, False),
            ("study.mixing_set", study.mixing_report_set, None, None, False),
            ("study.figure", study.figure_data, self._count_figure, None, False),
            ("study.write_json", study.write_json, self._count_json, None, False),
        ]

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "copulamix" or name.startswith("copulamix.")]
        for name, original, after, before, skip_home in self._targets():
            wrapper = self.wrap(name, original, after=after, before=before)
            for module in modules:
                if skip_home and module.__name__ == original.__module__:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for cls in LEAF_FAMILIES:
            for meth in LEAF_METHODS:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap_leaf(original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_seconds(self, prefix: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e9

    def span_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def values(self, hits: int, misses: int) -> dict:
        """Per-layer metrics of this round; hits and misses are the rule cache's."""
        c, s = self.counts, self.span_seconds
        values = {
            "rng.stream_calls": c["rng.stream_calls"],
            "rng.draws": c["rng.draws"],
            "rng.s": self.layer_seconds("rng."),
            "normal.ppf_calls": c["normal.ppf_calls"],
            "normal.ppf_elems": c["normal.ppf_elems"],
            "normal.ppf_s": s("normal.ppf"),
            "normal.cdf_s": s("normal.cdf"),
            "rootfind.calls": c["rootfind.calls"],
            "rootfind.f_evals": c["rootfind.f_evals"],
            "rootfind.unconverged": c["rootfind.unconverged"],
            "rootfind.s": self.layer_seconds("rootfind."),
            "chains.calls": c["chains.calls"],
            "chains.rows_per_call": c["chains.rows"] / c["chains.calls"] if c["chains.calls"] else 0.0,
            "chains.steps": c["chains.steps"],
            "chains.s": self.layer_seconds("chains."),
        }
        for name in self.step_names.values():
            steps = self.chain_steps[name]
            values[f"chains.step_ns.{name}"] = self.chain_ns[name] / steps if steps else 0.0
        values.update({
            "robust.calls": c["robust.calls"],
            "robust.s": s("robust.mean"),
            "robust.replicate_s": s("robust.replicate"),
            "quadrature.unit_rule_calls": c["quadrature.unit_rule_calls"],
            "quadrature.unit_rule_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "quadrature.unit_rule_s": s("quadrature.unit_rule"),
            "copulas.leaf_evals": c["copulas.leaf_evals"],
            "copulas.leaf_s": s("copulas.leaf"),
            "copulas.n_fold_s": s("copulas.n_fold") + s("copulas.fold"),
            "copulas.rectangle_s": s("copulas.rectangle"),
            "copulas.density_grid_calls": c["copulas.density_grid_calls"],
            "copulas.density_grid_points": c["copulas.density_grid_points"],
            "copulas.density_grid_s": s("copulas.density_grid"),
            "mixing.classify_s": s("mixing.classify"),
            "mixing.lag_report_s": s("mixing.lag_report"),
            "mixing.density_extrema_calls": c["mixing.density_extrema_calls"],
            "mixing.density_extrema_s": s("mixing.density_extrema"),
            "mixing.corner_scan_s": s("mixing.corner_scan"),
            "mixing.psi_prime_s": s("mixing.psi_prime"),
            "study.mixing_set_s": s("study.mixing_set") + s("study.write_json"),
            "study.figure_s": s("study.figure"),
            "study.bytes_written": c["study.bytes_written"],
        })
        return values

    def repeating_counts(self) -> dict:
        return {name: self.counts[name] for name in REPEATING_COUNTS}
