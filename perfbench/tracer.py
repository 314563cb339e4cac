"""Per-layer spans and counts, recorded from outside the program.

Tracing wraps the public functions that form each layer's boundary and
replaces them in every `dwcross` namespace that holds them (modules that
imported them by name included), so nothing under src/ is edited.  Each
call records one span: layer name, start, end, parent span and op id,
plus up to three integer work counts taken from its arguments or result.
Spans live in flat arrays in memory and are written out when the run ends.

Two self-checks compare counts taken independently of each other:
every evaluation of a root-finder closure (counted by wrapping
`models.characteristic_fn`) must sit under a scan or refine span, and the
Sturm shift points summed from the kernel's inputs must equal those
recounted from its outputs and the grid of the eigenvalue solve that
issued it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# Work counts (a, b, c) of one call, from its arguments and result.
Counts = Callable[[tuple, dict, object], tuple[int, int, int]]


def _result_len(args, kwargs, result):
    return len(result), 0, 0


def _grids_per_try(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return (2 if cfg.richardson else 1), 0, 0


def _grid_size(args, kwargs, result):
    return args[0].size, 0, 0


def _sturm_work(args, kwargs, result):
    """(shifts passed, diagonal length, counts returned)."""
    return int(np.size(args[2])), len(args[0]), int(np.size(result))


def _rk4_nodes(args, kwargs, result):
    return (len(args[0]) - 1) // 2 + 1, 0, 0


# (module, function, layer name, work counts or None) of every layer boundary.
LAYERS: tuple[tuple[str, str, str, Counts | None], ...] = (
    ("dwcross.specfun", "recip_gamma_log", "specfun.recip_gamma_log", None),
    ("dwcross.models", "characteristic", "models.char", None),
    ("dwcross.rootfind", "scan_brackets", "rootfind.scan", None),
    ("dwcross.rootfind", "refine_root", "rootfind.refine", None),
    ("dwcross.rootfind", "solve_levels", "rootfind.solve", _result_len),
    ("dwcross.sweep", "sweep_levels", "sweep.sweep_levels", None),
    ("dwcross.sweep", "detect_avoided_crossings", "sweep.detect", _result_len),
    ("dwcross.oracle", "oracle_levels", "oracle.oracle_levels", _grids_per_try),
    ("dwcross.oracle", "lowest_eigenvalues", "oracle.eig", _grid_size),
    ("dwcross.oracle", "wronskian_constancy", "oracle.wronskian", None),
    ("dwcross._kernels", "sturm_counts", "kernels.sturm", _sturm_work),
    ("dwcross._kernels", "integrate_schrodinger", "kernels.rk4", _rk4_nodes),
    ("dwcross.cli", "main", "cli.main", None),
)

# Computed (not measured) bytes of the Sturm pivot recurrence: diag and
# squared offdiag read once per grid point, and per shift-point the pivot
# read and written and the count read and written.
STURM_BYTES_PER_POINT = 16
STURM_BYTES_PER_SHIFT_POINT = 32


class Tracer:
    """Span recorder; install() patches the layers, uninstall() restores."""

    def __init__(self) -> None:
        self.layer_names = [layer for _, _, layer, _ in LAYERS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.work_a = array("i")
        self.work_b = array("i")
        self.work_c = array("i")
        self.errors: Counter = Counter()
        self.closure_evals = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn: Callable, counts: Counts | None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        work_a, work_b, work_c = self.work_a, self.work_b, self.work_c

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            work_a.append(0)
            work_b.append(0)
            work_c.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                self.errors[name_id] += 1
                raise
            end[idx] = clock()
            stack.pop()
            if counts is not None:
                work_a[idx], work_b[idx], work_c[idx] = counts(args, kwargs, result)
            return result

        return traced

    def _counting_characteristic_fn(self, original: Callable) -> Callable:
        """characteristic_fn whose closures count their calls (no span)."""

        @functools.wraps(original)
        def characteristic_fn(*args, **kwargs):
            f = original(*args, **kwargs)

            def counted(energy):
                self.closure_evals += 1
                return f(energy)

            return counted

        return characteristic_fn

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dwcross"]
        originals = [getattr(sys.modules[module], func) for module, func, _, _ in LAYERS]
        wrappers = [
            self._wrap(name_id, original, counts)
            for name_id, (original, (_, _, _, counts)) in enumerate(zip(originals, LAYERS))
        ]
        char_fn = sys.modules["dwcross.models"].characteristic_fn
        originals.append(char_fn)
        wrappers.append(self._counting_characteristic_fn(char_fn))
        for original, wrapper in zip(originals, wrappers):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "work_a": np.frombuffer(self.work_a, dtype=np.int32),
            "work_b": np.frombuffer(self.work_b, dtype=np.int32),
            "work_c": np.frombuffer(self.work_c, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        """Spans as a .npz: one entry per array plus the layer names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(self.layer_names), **self.arrays())

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the recorded spans, and the self-check
        failures (empty when every check holds)."""
        s = self.arrays()
        layer = {n: i for i, n in enumerate(self.layer_names)}
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def mask(n):
            return name == layer[n]

        def calls(n):
            return int(np.count_nonzero(mask(n)))

        def total(n):
            return float(dur[mask(n)].sum())

        def self_s(n):
            return float(self_time[mask(n)].sum())

        def under(n, p):
            return mask(n) & (parent_name == layer[p])

        def ratio(num, den):
            return num / den if den else 0.0

        char = mask("models.char")
        scan_evals = int(np.count_nonzero(under("models.char", "rootfind.scan")))
        refine_evals = int(np.count_nonzero(under("models.char", "rootfind.refine")))
        # Evaluations that did not go through a root-finder closure.
        other_evals = calls("models.char") - self.closure_evals

        solve = mask("rootfind.solve")
        solve_idx = np.flatnonzero(solve)
        scans_per_solve = np.bincount(
            parent[under("rootfind.scan", "rootfind.solve")], minlength=dur.size
        )[solve_idx]
        levels = int(s["work_a"][solve].sum())
        grandparent = np.where(has_parent, parent[np.maximum(parent, 0)], -1)
        evals_in_solves = int(np.count_nonzero(char & np.isin(grandparent, solve_idx)))

        points = under("rootfind.solve", "sweep.sweep_levels")
        ol = mask("oracle.oracle_levels")
        grids = np.bincount(
            parent[under("oracle.eig", "oracle.oracle_levels")], minlength=dur.size
        )[ol]
        regrowths = int((grids // np.maximum(s["work_a"][ol], 1) - 1).sum())
        sturm = mask("kernels.sturm")
        shifts = s["work_a"][sturm]
        sturm_n = s["work_b"][sturm]
        shift_points = int((shifts * sturm_n).sum())
        rk4 = mask("kernels.rk4")
        nodes = int(s["work_a"][rk4].sum())

        m = {
            "specfun.recip_gamma_log.calls": calls("specfun.recip_gamma_log"),
            "specfun.recip_gamma_log.self_s": self_s("specfun.recip_gamma_log"),
            "models.char.calls": calls("models.char"),
            "models.char.self_s": self_s("models.char"),
            "models.char.us_per_eval": 1e6 * ratio(total("models.char"), calls("models.char")),
            "models.char.other_evals": other_evals,
            "rootfind.solve.calls": calls("rootfind.solve"),
            "rootfind.solve.s": total("rootfind.solve"),
            "rootfind.errors": self.errors[layer["rootfind.solve"]],
            "rootfind.levels": levels,
            "rootfind.scan.calls": calls("rootfind.scan"),
            "rootfind.scan.self_s": self_s("rootfind.scan"),
            "rootfind.scan.evals": scan_evals,
            "rootfind.scan.rescans": int(np.maximum(scans_per_solve - 1, 0).sum()),
            "rootfind.refine.calls": calls("rootfind.refine"),
            "rootfind.refine.self_s": self_s("rootfind.refine"),
            "rootfind.refine.evals": refine_evals,
            "rootfind.evals_per_level": ratio(evals_in_solves, levels),
            "sweep.sweep_levels.s": total("sweep.sweep_levels"),
            "sweep.points": int(np.count_nonzero(points)),
            "sweep.point_ms_p50": 1e3 * float(np.median(dur[points])) if points.any() else 0.0,
            "sweep.detect.self_s": self_s("sweep.detect"),
            "sweep.golden_probes": int(np.count_nonzero(under("rootfind.scan", "sweep.detect"))),
            "sweep.gap_fallbacks": int(np.count_nonzero(under("rootfind.solve", "sweep.detect"))),
            "sweep.crossings": int(s["work_a"][mask("sweep.detect")].sum()),
            "oracle.oracle_levels.calls": calls("oracle.oracle_levels"),
            "oracle.oracle_levels.self_s": self_s("oracle.oracle_levels"),
            "oracle.eig.calls": calls("oracle.eig"),
            "oracle.eig.self_s": self_s("oracle.eig"),
            "oracle.eig.grid_points": int(s["work_a"][mask("oracle.eig")].sum()),
            "oracle.regrowths": regrowths,
            "kernels.sturm.calls": calls("kernels.sturm"),
            "kernels.sturm.shifts": int(shifts.sum()),
            "kernels.sturm.shift_points": shift_points,
            "kernels.sturm.s": total("kernels.sturm"),
            "kernels.sturm.ns_per_shift_point": 1e9 * ratio(total("kernels.sturm"), shift_points),
            "kernels.sturm.bytes_computed": int(
                STURM_BYTES_PER_POINT * sturm_n.sum()
                + STURM_BYTES_PER_SHIFT_POINT * shift_points
            ),
            "oracle.wronskian.calls": calls("oracle.wronskian"),
            "oracle.wronskian.self_s": self_s("oracle.wronskian"),
            "kernels.rk4.calls": calls("kernels.rk4"),
            "kernels.rk4.nodes": nodes,
            "kernels.rk4.s": total("kernels.rk4"),
            "kernels.rk4.ns_per_node": 1e9 * ratio(total("kernels.rk4"), nodes),
            "cli.main.s": total("cli.main"),
            "cli.self_s": self_s("cli.main"),
        }

        failures = []
        # Span parentage attributes scan and refine evaluations; the closure
        # counter gives the others.  They add up only if every closure call
        # ran under a scan or refine span.
        if scan_evals + refine_evals + other_evals != calls("models.char"):
            failures.append(
                f"F evaluations: scan {scan_evals} + refine {refine_evals} + other "
                f"{other_evals} != models.char.calls {calls('models.char')}"
            )
        # Sturm work counted a second way: counts the kernel returned times
        # the grid size of the eigenvalue solve that issued it.
        in_eig = parent_name[sturm] == layer["oracle.eig"]
        eig_size = s["work_a"][parent[sturm]]
        recount = int((s["work_c"][sturm] * np.where(in_eig, eig_size, sturm_n)).sum())
        if recount != shift_points:
            failures.append(
                f"kernels.sturm.shift_points {shift_points} != sum of shifts x grid size {recount}"
            )
        return m, failures
