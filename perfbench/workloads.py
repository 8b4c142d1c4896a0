"""Seeded job lists for the benchmark workloads.

A workload is a list of instance specs; each spec names the graph parts,
the game kind and the runs (algorithm, bound, mode, budget) it gets. Every
instance travels the path a CLI user takes: `gen_instance` draws it,
`write_instance` prints it, `parse_instance_text` and `realize_instance`
read it back. RATIONALE.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from graphcsg import instances

DEFAULT_SEED = 1
WORKLOADS = ("dp-sweep", "search-prune", "hybrid-anytime", "many-small")
ANYTIME = ("dype-star", "d-tsp")


@dataclass(frozen=True)
class Run:
    algorithm: str
    bound: str | None = None
    mode: str = "interleaved"
    budget_ms: float | None = None

    @property
    def anytime(self) -> bool:
        return self.algorithm in ANYTIME

    @property
    def label(self) -> str:
        out = self.algorithm
        if self.bound:
            out += "+" + self.bound
        if self.algorithm == "d-tsp":
            out += "/" + self.mode
        if self.budget_ms is not None:
            out += f"@{self.budget_ms:g}ms"
        return out


@dataclass(frozen=True)
class Part:
    """One connected component: a graph model, its size, and the seed of
    its edges (None draws the edges from the run seed)."""

    model: str
    n: int
    p: float = 0.5
    seed: int | None = None


@dataclass(frozen=True)
class Spec:
    key: str
    parts: tuple[Part, ...]
    game_kind: str
    game_seed: int
    root: int | None
    runs: tuple[Run, ...]

    @property
    def n(self) -> int:
        return sum(part.n for part in self.parts)


def derive_seed(*parts) -> int:
    """Stable 31-bit seed from any tuple of labels (string seeding of
    `random.Random` hashes with SHA-512, so it does not depend on
    PYTHONHASHSEED)."""
    return random.Random("/".join(map(str, parts))).getrandbits(31)


def make_instance(spec: Spec) -> instances.InstanceFile:
    """Generate the instance a spec describes.

    The edges of each part come from `gen_instance` on that part's model;
    the parts are laid side by side, so several parts make a disconnected
    graph. The game comes from a second `gen_instance` call whose model is
    "path", which draws no edges, so the game depends only on its seed.
    """
    edges = []
    offset = 0
    for part in spec.parts:
        shape = instances.gen_instance(part.model, part.n,
                                       game_kind="supersub", seed=part.seed,
                                       p=part.p)
        edges.extend((u + offset, v + offset) for u, v in shape.edges)
        offset += part.n
    game = instances.gen_instance("path", spec.n, game_kind=spec.game_kind,
                                  seed=spec.game_seed)
    return dataclasses.replace(game, edges=tuple(edges), root=spec.root)


# Runs of the dp-sweep workload: the two table-filling solvers.
_DP_RUNS = (Run("dype"), Run("dype-star"))

# dp-sweep graphs: sparse gnp at n = 16..20, on both sides of the graph's
# subset-cache limit (n <= 16). The DP's work varies tenfold between gnp
# seeds even at a fixed edge count, so the edge seeds are fixed here. The
# tables are fixed too: the level at which dype-star meets the optimum,
# and so tto_ms_p50, depends on them.
_DP_GRAPHS = (Part("gnp", 16, 0.2, 0), Part("gnp", 16, 0.2, 1),
              Part("gnp", 17, 0.17, 2), Part("gnp", 18, 0.15, 1),
              Part("gnp", 19, 0.13, 0), Part("gnp", 20, 0.12, 0))

# search-prune: branch and bound on supersub games, and contraction search
# on small table games. Tree-search work swings tenfold with the supersub
# weights, so those games are fixed; the run seed draws the cfss tables.
_SEARCH_SUPERSUB = (tuple(Part("gnp", 14, 0.2, s) for s in range(12))
                    + tuple(Part("gnp", 15, 0.17, s) for s in range(8))
                    + tuple(Part("cycle", n) for n in (16, 17, 18, 19)))
_SEARCH_TABLE = (Part("gnp", 10, 0.3, 0), Part("gnp", 10, 0.3, 1),
                 Part("gnp", 11, 0.25, 0), Part("gnp", 11, 0.25, 1))
_SEARCH_TSP_RUNS = (Run("tsp", "supersub"),)
_SEARCH_CFSS_RUNS = (Run("cfss", "none"), Run("cfss", "supersub"))

# hybrid-anytime: fixed table games on denser gnp at n = 12..14; where the
# search meets the optimum depends on the tables. Budgets sit well below
# every instance's unbudgeted solve time at the commit that defined the
# benchmark.
_HYBRID_GRAPHS = (Part("gnp", 12, 0.3, 0), Part("gnp", 12, 0.4, 1),
                  Part("gnp", 13, 0.25, 0), Part("gnp", 13, 0.3, 1),
                  Part("gnp", 14, 0.25, 0))
_HYBRID_RUNS = (Run("dype-star"), Run("d-tsp", "none"),
                Run("d-tsp", "supersub"), Run("d-tsp", "none", "parallel"),
                Run("d-tsp", "none", budget_ms=15),
                Run("dype-star", budget_ms=3))

# many-small: every algorithm, the oracle included, on tiny instances.
_SMALL_RUNS = (Run("oracle"), Run("dype"), Run("tsp", "none"),
               Run("tsp", "supersub"), Run("dype-star"),
               Run("d-tsp", "none"), Run("d-tsp", "none", "parallel"),
               Run("cfss", "none"), Run("cfss", "supersub"))
_SMALL_COUNT = 400
# (model, smallest n, largest n, gnp edge probability). Models and sizes
# cycle in a fixed pattern, so every seed gets the same size mix; the seed
# draws the gnp edges, the games and the roots.
_SMALL_MODELS = (("path", 4, 10, 0.5), ("cycle", 4, 10, 0.5),
                 ("star", 4, 9, 0.5), ("complete", 4, 6, 0.5),
                 ("gnp", 4, 8, 0.4))


def _fixed_specs(workload, seed, groups):
    """Specs over fixed graphs. A group whose game is not seeded draws its
    game from a fixed seed too, so the run seed leaves it unchanged."""
    specs = []
    for parts, kind, runs, seeded_game in groups:
        for part in parts:
            i = len(specs)
            game_seed = derive_seed(seed if seeded_game else "fixed",
                                    workload, i, "game")
            key = (f"{i}:{part.model}-n{part.n}-p{part.p:g}-e{part.seed}"
                   f"-{kind}-g{game_seed}")
            specs.append(Spec(key, (part,), kind, game_seed, None, runs))
    return specs


def _small_specs(seed):
    specs = []
    count = len(_SMALL_MODELS)
    for i in range(_SMALL_COUNT):
        rng = random.Random(derive_seed(seed, "many-small", i, "shape"))
        model, lo, hi, p = _SMALL_MODELS[i % count]
        step = i // count
        n = lo + step % (hi - lo + 1)
        parts = [Part(model, n, p,
                      derive_seed(seed, "many-small", i, "edges", 0))]
        if step % 4 == 3:
            # Every fourth instance of a model gets a second component;
            # the two together stay within the oracle's n <= 12.
            model, lo, _, p = _SMALL_MODELS[(i + 1) % count]
            second = lo + step % 3
            parts = [dataclasses.replace(parts[0], n=min(n, 12 - second)),
                     Part(model, second, p,
                          derive_seed(seed, "many-small", i, "edges", 1))]
        n = sum(part.n for part in parts)
        kind = "supersub" if i % 4 == 3 else "table"
        root = rng.randrange(n) if i % 2 else None
        game_seed = derive_seed(seed, "many-small", i, "game")
        shape = "+".join(f"{part.model}-n{part.n}-e{part.seed}"
                         for part in parts)
        key = f"{i}:{shape}-{kind}-g{game_seed}-r{root}"
        specs.append(Spec(key, tuple(parts), kind, game_seed, root,
                          _SMALL_RUNS))
    return specs


def build_specs(workload: str, seed: int) -> list[Spec]:
    """The job list of one workload for one seed; the same seed always
    gives the same list."""
    if workload == "dp-sweep":
        return _fixed_specs(workload, seed,
                            [(_DP_GRAPHS, "table", _DP_RUNS, False)])
    if workload == "search-prune":
        return _fixed_specs(workload, seed, [
            (_SEARCH_SUPERSUB, "supersub", _SEARCH_TSP_RUNS, False),
            (_SEARCH_TABLE, "table", _SEARCH_CFSS_RUNS, True)])
    if workload == "hybrid-anytime":
        return _fixed_specs(workload, seed,
                            [(_HYBRID_GRAPHS, "table", _HYBRID_RUNS, False)])
    if workload == "many-small":
        return _small_specs(seed)
    raise ValueError(f"unknown workload {workload!r}")
