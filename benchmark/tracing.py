"""Per-layer tracing installed from the outside of motivelab.

The tracer replaces public functions and methods of motivelab with timing
wrappers. A module-level function is replaced in every motivelab namespace
that holds it, so a call through a name imported elsewhere (for example
``motivelab.cocycles.eliminate_mod_q``) is traced as well. Self time comes
from a span stack: a span's self time is its duration minus the time of the
traced spans it encloses, so nested calls are not counted twice.

Nothing here changes what a wrapped call returns. With tracing off no
wrapper is installed and the program runs untouched.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("groups.construct", "motivelab.groups", "cyclic_group"),
    ("groups.construct", "motivelab.groups", "symmetric_group"),
    ("groups.construct", "motivelab.groups", "dihedral_group"),
    ("groups.construct", "motivelab.groups", "elementary_abelian_group"),
    ("groups.construct", "motivelab.groups", "product_group"),
    ("groups.construct", "motivelab.groups", "group_from_cayley"),
    ("groups.construct", "motivelab.groups", "group_from_permutations"),
    ("groups.construct", "motivelab.groups", "construct_group"),
    ("intlinalg.eliminate", "motivelab.intlinalg", "eliminate_mod_q"),
    ("intlinalg.diagonalize", "motivelab.intlinalg", "diagonalize_mod_q"),
    ("intlinalg.kernel", "motivelab.intlinalg", "kernel_mod_q"),
    ("cocycles.schur_multiplier", "motivelab.cocycles", "schur_multiplier"),
    ("cocycles.cocycle_validate", "motivelab.cocycles", "cocycle_validate"),
    ("characters.character_table", "motivelab.characters", "character_table"),
    ("characters.decompose_class_function", "motivelab.characters",
     "decompose_class_function"),
    ("twisted.build_twisted", "motivelab.twisted", "build_twisted"),
    ("twisted.alpha_regular", "motivelab.twisted", "alpha_regular"),
    ("twisted.center_basis", "motivelab.twisted", "center_basis"),
    ("twisted.wedderburn_dims", "motivelab.twisted", "wedderburn_dims"),
    ("motives.decompose_collection", "motivelab.motives", "decompose_collection"),
    ("motives.hom_rank", "motivelab.motives", "hom_rank"),
    ("motives.skeleton_hom_rank", "motivelab.motives", "skeleton_hom_rank"),
    ("catalog.instantiate", "motivelab.catalog", "instantiate"),
    ("measures.factorization_check", "motivelab.measures", "factorization_check"),
    ("measures.blowup_check", "motivelab.measures", "blowup_check"),
]

# (span name, module, class, attribute) for methods.
METHODS = [
    ("groups.conjugacy_classes", "motivelab.groups", "FiniteGroup", "conjugacy_classes"),
    ("groups.centralizer", "motivelab.groups", "FiniteGroup", "centralizer"),
    ("characters.virtual_mul", "motivelab.characters", "VirtualCharacter", "mul"),
    ("cyclotomic.mul", "motivelab.cyclotomic", "Cyclotomic", "__mul__"),
    ("cyclotomic.mul", "motivelab.cyclotomic", "Cyclotomic", "__rmul__"),
    ("cyclotomic.add", "motivelab.cyclotomic", "Cyclotomic", "__add__"),
    ("cyclotomic.add", "motivelab.cyclotomic", "Cyclotomic", "__radd__"),
    ("cyclotomic.conjugate", "motivelab.cyclotomic", "Cyclotomic", "conjugate"),
]


class Tracer:
    """Span stack and per-name totals: calls, inclusive and self seconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list[float]] = []   # per open span: [child seconds]
        self._active = [True]                 # False while a check runs
        self._patches: list[tuple[object, str, object]] = []
        self.max_rows = 0
        self.schur_groups = 0
        self.table_builds = 0
        self.table_build_s = 0.0
        self._schur_seen: weakref.WeakSet = weakref.WeakSet()
        self._table_seen: weakref.WeakSet = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stack, active = self._stack, self._active
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        for d in (calls, total_s, self_s):
            d.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]

        return wrapper

    # -- observers for the layer counters ------------------------------------

    def _observe_eliminate(self, args):
        rows = getattr(args[0], "shape", (0,))[0]
        if rows > self.max_rows:
            self.max_rows = rows

    def _observe_schur(self, args):
        G = args[0]
        if G not in self._schur_seen:
            self._schur_seen.add(G)
            self.schur_groups += 1

    def _wrap_character_table(self, fn):
        # A table build is the first character_table call on a group object.
        inner = self._wrap("characters.character_table", fn)

        @functools.wraps(fn)
        def wrapper(G, *args, **kwargs):
            if not self._active[0] or G in self._table_seen:
                return inner(G, *args, **kwargs)
            self._table_seen.add(G)
            self.table_builds += 1
            before = self.self_s["characters.character_table"]
            try:
                return inner(G, *args, **kwargs)
            finally:
                self.table_build_s += self.self_s["characters.character_table"] - before

        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "motivelab" or k.startswith("motivelab."))]
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            if attr == "character_table":
                wrapper = self._wrap_character_table(fn)
            elif attr == "eliminate_mod_q":
                wrapper = self._wrap(name, fn, self._observe_eliminate)
            elif attr == "schur_multiplier":
                wrapper = self._wrap(name, fn, self._observe_schur)
            else:
                wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def remove(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def untraced(self, fn, *args):
        """Call ``fn`` with every wrapper passing straight through, so the
        benchmark's own checks are not counted as program work."""
        self._active[0] = False
        try:
            return fn(*args)
        finally:
            self._active[0] = True

    def reset(self) -> None:
        """Zero every total; used after set-up so only timed rounds count.
        Group objects whose table was built during set-up stay known, so a
        later call on them is not counted as a build."""
        for d in (self.calls, self.total_s, self.self_s):
            for k in d:
                d[k] = 0
        self.max_rows = 0
        self.schur_groups = 0
        self.table_builds = 0
        self.table_build_s = 0.0

    def start_round(self) -> None:
        """``schur_groups`` counts distinct group objects within one round."""
        self._schur_seen = weakref.WeakSet()

    # -- report --------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as name -> (value, unit)."""
        r = float(rounds)
        c, s = self.calls, self.self_s
        return {
            "cocycles.schur_multiplier_calls": (c["cocycles.schur_multiplier"] / r, "count"),
            "cocycles.schur_multiplier_s": (s["cocycles.schur_multiplier"] / r, "s"),
            "cocycles.schur_groups": (self.schur_groups / r, "count"),
            "intlinalg.eliminate_s": (s["intlinalg.eliminate"] / r, "s"),
            "intlinalg.diagonalize_s": (s["intlinalg.diagonalize"] / r, "s"),
            "intlinalg.kernel_s": (s["intlinalg.kernel"] / r, "s"),
            "intlinalg.eliminate_calls": (c["intlinalg.eliminate"] / r, "count"),
            "intlinalg.max_rows": (float(self.max_rows), "rows"),
            "characters.character_table_calls": (c["characters.character_table"] / r, "count"),
            "characters.table_builds": (self.table_builds / r, "count"),
            "characters.table_build_s": (self.table_build_s / r, "s"),
            "characters.virtual_mul_calls": (c["characters.virtual_mul"] / r, "count"),
            "characters.virtual_mul_s": (s["characters.virtual_mul"] / r, "s"),
            "characters.decompose_class_function_s":
                (s["characters.decompose_class_function"] / r, "s"),
            "cyclotomic.mul_calls": (c["cyclotomic.mul"] / r, "count"),
            "cyclotomic.add_calls": (c["cyclotomic.add"] / r, "count"),
            "cyclotomic.conjugate_calls": (c["cyclotomic.conjugate"] / r, "count"),
            "cyclotomic.mul_s": (s["cyclotomic.mul"] / r, "s"),
            "groups.construct_s": (s["groups.construct"] / r, "s"),
            "groups.conjugacy_classes_s": (s["groups.conjugacy_classes"] / r, "s"),
            "groups.centralizer_calls": (c["groups.centralizer"] / r, "count"),
            "groups.centralizer_s": (s["groups.centralizer"] / r, "s"),
            "twisted.alpha_regular_calls": (c["twisted.alpha_regular"] / r, "count"),
            "twisted.alpha_regular_s": (s["twisted.alpha_regular"] / r, "s"),
            "twisted.center_basis_s": (s["twisted.center_basis"] / r, "s"),
            "twisted.wedderburn_dims_s": (s["twisted.wedderburn_dims"] / r, "s"),
            "cocycles.cocycle_validate_calls": (c["cocycles.cocycle_validate"] / r, "count"),
            "cocycles.cocycle_validate_s": (s["cocycles.cocycle_validate"] / r, "s"),
            "motives.decompose_collection_s": (s["motives.decompose_collection"] / r, "s"),
            "motives.hom_rank_calls": (c["motives.hom_rank"] / r, "count"),
            "motives.hom_rank_s": (s["motives.hom_rank"] / r, "s"),
            "catalog.instantiate_s": (s["catalog.instantiate"] / r, "s"),
            "measures.factorization_check_s": (s["measures.factorization_check"] / r, "s"),
            "measures.blowup_check_s": (s["measures.blowup_check"] / r, "s"),
        }

    def span_table(self) -> dict[str, dict[str, float]]:
        return {k: {"calls": self.calls[k], "total_s": self.total_s[k],
                    "self_s": self.self_s[k]} for k in sorted(self.calls)}
