"""Spans and counters recorded around semistab's public functions.

Nothing inside ``src/`` knows about this module.  ``Tracer.patch`` replaces
every binding of a traced function in every loaded ``semistab`` module:
modules import with ``from .x import f``, so patching ``lp.solve_eq_lp``
alone would miss the copies held by ``gitnorm`` and ``tileplan``.  All
bindings of one function share one wrapper, so a call counts once however
it was reached (``feasible_point`` calls ``lp.solve_eq_lp`` through lp's own
binding: one solve, not two).

A span records name, start, end, its parent span and the benchmark op it
belongs to.  A span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# module -> public functions wrapped in the traced run
TRACED = {
    "lp": ("solve_eq_lp",),
    "polycore": ("act_group", "support_set"),
    "gitnorm": ("git_norm", "minimize_diagonal", "kempf_ness_polish",
                "find_destabilizer", "polytope_membership", "sparse_criterion"),
    "radon": ("semistability_verdict", "pencil_destabilizer",
              "verify_radon_decomposition"),
    "blockdecomp": ("eliminate", "verify_block_decomposition", "tile_map",
                    "useful_tiles"),
    "tileplan": ("solve_plan",),
    "sublevel": ("estimate_integral",),
    "cli": ("main",),
}

# SemistabilityVerdict carries its stage only in free text; an unknown text
# is an error so that a rename cannot silently drop stage counts.
STAGES = (
    ("zero form", "zero"),
    ("sparse criterion", "sparse"),
    ("identity-frame destabilizer", "identity-frame"),
    ("random-frame destabilizer", "random-frame"),
    ("pencil-reduction destabilizer", "pencil"),
    ("converged critical point", "critical"),
)
STAGE_NAMES = tuple(s for _, s in STAGES) + ("undetermined",)


class UnknownStage(Exception):
    pass


def verdict_stage(detail: str) -> str:
    for text, stage in STAGES:
        if detail == text:
            return stage
    if detail.startswith("best upper bound "):
        return "undetermined"
    raise UnknownStage(f"unrecognised verdict detail {detail!r}")


class LpDigest:
    """sha256 over (status, x, objective, Farkas vector) of every LP, in
    call order."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, res):
        vec = lambda xs: "None" if xs is None else ",".join(map(str, xs))
        line = f"{res.status}|{vec(res.x)}|{res.objective}|{vec(res.farkas)}\n"
        self._h.update(line.encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _semistab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "semistab" or name.startswith("semistab."))]


class Patch:
    """Replace every binding of some functions across semistab's modules."""

    def __init__(self, wrappers: dict):
        self._by_id = {id(orig): w for orig, w in wrappers.items()}
        self._undo = []

    def __enter__(self):
        for mod in _semistab_modules():
            for attr, val in list(vars(mod).items()):
                w = self._by_id.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)
                    self._undo.append((mod, attr, val))
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()
        return False


def lp_digest_patch(mods, digest_holder: list) -> Patch:
    """Patch that only feeds LP results into ``digest_holder[0]`` (when it is
    not None); used by the untraced run, which keeps timing otherwise bare."""
    orig = mods.lp.solve_eq_lp

    @wraps(orig)
    def solve_eq_lp(*args, **kwargs):
        res = orig(*args, **kwargs)
        if digest_holder[0] is not None:
            digest_holder[0].add(res)
        return res

    return Patch({orig: solve_eq_lp})


class Tracer:
    def __init__(self, mods):
        self._mods = mods
        self._stack = []
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.lp_digest = LpDigest()
        self.errors = []
        self._next_id = 0
        self.op_id = None

    # -- spans -------------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, self._next_id,
                parent[3] if parent else None, parent[0] if parent else None]
        self._stack.append(span)
        return span

    def _exit(self, span, name=None):
        end = time.perf_counter()
        self._stack.pop()
        if name is not None:
            span[0] = name
        dur = end - span[1]
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[span[0]] += dur - span[2]
        self.calls[span[0]] += 1
        self.spans.append((span[3], span[4], span[0], span[1], end, self.op_id))
        return dur

    def op_span(self, op_id):
        """Context manager for the root span of one benchmark op."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op_id = op_id
                self.span = tracer._enter("bench.op")
                return self

            def __exit__(self, *exc):
                self.dur = tracer._exit(self.span)
                tracer.op_id = None
                return False

        return _Op()

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, key, fn):
        tracer = self
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(key)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span)
                raise
            name = None
            if key == "polycore.act_group":
                name = key + ("_exact" if res.exact else "_float")
            tracer._exit(span, name)
            if hook is not None:
                hook(span, args, kwargs, res)
            return res

        return wrapper

    def patch(self) -> Patch:
        wrappers = {}
        for mod_name, names in TRACED.items():
            mod = getattr(self._mods, mod_name)
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self._wrapper(f"{mod_name}.{name}", fn)
        return Patch(wrappers)

    # -- counters read from arguments and return values -------------------------

    def _hook_lp_solve_eq_lp(self, span, args, kwargs, res):
        A = args[0] if args else kwargs["A"]
        self.counts["lp.cells"] += len(A) * (len(A[0]) if A else 0)
        self.counts["lp.infeasible"] += res.status == "infeasible"
        self.lp_digest.add(res)

    def _hook_gitnorm_git_norm(self, span, args, kwargs, res):
        self.counts["gitnorm.inner_solves"] += res.evaluations

    def _hook_gitnorm_minimize_diagonal(self, span, args, kwargs, res):
        self.counts["gitnorm.newton_iterations"] += res.iterations

    def _hook_gitnorm_polytope_membership(self, span, args, kwargs, res):
        # membership tests called straight from the verdict are the
        # random-frame stage's attempts
        if span[5] == "radon.semistability_verdict":
            self.counts["radon.random_frame_attempts"] += 1

    def _hook_radon_semistability_verdict(self, span, args, kwargs, res):
        try:
            stage = verdict_stage(res.detail)
        except UnknownStage as exc:
            self.errors.append(str(exc))
            return
        self.counts["radon.stage." + stage] += 1

    def _hook_sublevel_estimate_integral(self, span, args, kwargs, res):
        self.counts["sublevel.samples"] += res.samples
        self.counts["sublevel.flagged"] += res.flagged

    # -- summary -----------------------------------------------------------------

    def module_self_s(self) -> dict:
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out
