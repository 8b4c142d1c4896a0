"""Line-oriented instance files and the random instance generator.

Format (one directive per line, blank lines ignored):

    csg 1
    n 4
    e 0 1
    e 1 2
    game table 3 7 1 ... (2^n - 1 integers, indexed by coalition bitmask)
    root 2

or, instead of the table line:

    game supersub w 3 0 2 5 k 2 seed 17

Values are integers. Tabulated instances are limited to n <= 20; the
compact supersub form goes up to the solver-wide cap of 63 agents.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .games import TABLE_MAX_N, Game, make_supersub_game, randints
from .graph import MAX_N, Graph

_GNP_RETRIES = 1000
# Table values are printed and parsed in batches of about this many, so a
# 2^20-entry table never holds a million token strings at once.
_BATCH = 4096
_SPACE = re.compile(r"\s")

MODELS = ("path", "cycle", "star", "complete", "gnp")
GAME_KINDS = ("table", "supersub")


class InstanceFormatError(ValueError):
    """Malformed or semantically invalid instance text."""


class GraphSamplingError(ValueError):
    """No connected gnp graph was drawn in the allowed number of tries."""


@dataclass(frozen=True)
class InstanceFile:
    n: int
    edges: tuple[tuple[int, int], ...]
    game_kind: str                       # one of GAME_KINDS
    table: tuple[int, ...] | None = None
    weights: tuple[int, ...] | None = None
    kappa: int | None = None
    seed: int | None = None
    root: int | None = None

    def __post_init__(self):
        if self.game_kind not in GAME_KINDS:
            raise ValueError(f"unknown game kind {self.game_kind!r}")


def _error(lineno: int, message: str) -> InstanceFormatError:
    return InstanceFormatError(f"line {lineno}: {message}")


def _int_token(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise _error(lineno, f"{what} {tok!r} is not an integer") from None


def _table_values(text: str, lineno: int) -> list[int]:
    """The integers of a table line's value text, split in batches cut at
    whitespace; the same tokens as `text.split()`."""
    vals = []
    pos = 0
    while pos < len(text):
        cut = _SPACE.search(text, pos + 4 * _BATCH)
        end = cut.start() if cut else len(text)
        toks = text[pos:end].split()
        try:
            vals += map(int, toks)
        except ValueError:  # walk the batch again to name the bad token
            vals += [_int_token(t, lineno, "table value") for t in toks]
        pos = end
    return vals


# Each directive's name in messages; a key not listed is unknown.
_NAMES = {"n": "n", "e": "edge", "game": "game", "root": "root"}


def parse_instance_text(text: str) -> InstanceFile:
    """Parse instance text into its file-level form, without realizing the
    game or graph. Raises InstanceFormatError with the offending line.

    After the header, a line's checks run in one order: an unknown
    directive, a repeated one (only `e` repeats), one other than `n`
    before `n`, the arity of `n` and `root`, then its values. A line with
    several faults reports the first."""
    n = None
    edges: list[tuple[int, int]] = []
    game_kind = table = weights = kappa = seed = root = None
    seen = set()  # the directives read so far, the header ("csg") first

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split(None, 2)
        if toks[:2] != ["game", "table"]:
            toks = line.split()
        key = toks[0]
        if not seen:
            if toks != ["csg", "1"]:
                raise _error(lineno,
                             f"expected header 'csg 1', got {line!r}")
            seen.add("csg")
            continue
        name = _NAMES.get(key)
        if name is None:
            raise _error(lineno, f"unknown directive {key!r}")
        if key in seen and key != "e":
            raise _error(lineno, f"duplicate {name}")
        if "n" not in seen and key != "n":
            raise _error(lineno, f"{name} before n is declared")
        if key in ("n", "root") and len(toks) != 2:
            raise _error(lineno, f"{name} takes one integer")
        seen.add(key)
        if key == "n":
            n = _int_token(toks[1], lineno, "agent count")
            if not 1 <= n <= MAX_N:
                raise _error(lineno, f"n must be in 1..{MAX_N}, got {n}")
        elif key == "e":
            if len(toks) != 3:
                raise _error(lineno, "edge takes two endpoints")
            i = _int_token(toks[1], lineno, "edge endpoint")
            j = _int_token(toks[2], lineno, "edge endpoint")
            if not (0 <= i < n and 0 <= j < n):
                raise _error(lineno,
                             f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise _error(lineno, f"edge ({i}, {j}) is a self-loop")
            edges.append((i, j))
        elif key == "game":
            if len(toks) < 2:
                raise _error(lineno, "game needs a kind")
            game_kind = toks[1]
            if game_kind == "table":
                if n > TABLE_MAX_N:
                    raise _error(lineno, f"table games are capped at n <= "
                                         f"{TABLE_MAX_N}, got n={n}")
                vals = _table_values(toks[2] if len(toks) > 2 else "",
                                     lineno)
                want = (1 << n) - 1
                if len(vals) != want:
                    raise _error(lineno, f"table needs {want} values for "
                                         f"n={n}, got {len(vals)}")
                table = tuple(vals)
            elif game_kind == "supersub":
                rest = toks[2:]
                if not rest or rest[0] != "w":
                    raise _error(lineno, "supersub game starts with 'w'")
                if len(rest) < n + 3 or rest[n + 1] != "k":
                    raise _error(lineno, f"supersub game needs {n} weights "
                                         f"then 'k <kappa>'")
                weights = tuple(_int_token(t, lineno, "weight")
                                for t in rest[1:n + 1])
                kappa = _int_token(rest[n + 2], lineno, "kappa")
                tail = rest[n + 3:]
                if tail:
                    if len(tail) != 2 or tail[0] != "seed":
                        raise _error(lineno, f"unexpected trailing tokens "
                                             f"{' '.join(tail)!r}")
                    seed = _int_token(tail[1], lineno, "seed")
                if any(w < 0 for w in weights) or kappa < 0:
                    raise _error(lineno,
                                 "weights and kappa must be nonnegative")
            else:
                raise _error(lineno, f"unknown game kind {game_kind!r}")
        elif key == "root":
            root = _int_token(toks[1], lineno, "root")
            if not 0 <= root < n:
                raise _error(lineno, f"root {root} out of range for n={n}")

    if not seen:
        raise InstanceFormatError("line 1: missing 'csg 1' header")
    if n is None:
        raise InstanceFormatError("missing n declaration")
    if game_kind is None:
        raise InstanceFormatError("missing game declaration")
    return InstanceFile(n=n, edges=tuple(edges), game_kind=game_kind,
                        table=table, weights=weights, kappa=kappa,
                        seed=seed, root=root)


def write_instance(inst: InstanceFile) -> str:
    lines = ["csg 1", f"n {inst.n}"]
    for i, j in inst.edges:
        lines.append(f"e {i} {j}")
    if inst.game_kind == "table":
        t = inst.table
        lines.append("game table " + " ".join(
            " ".join(map(str, t[i:i + _BATCH]))
            for i in range(0, len(t), _BATCH)))
    else:
        line = ("game supersub w " + " ".join(str(w) for w in inst.weights)
                + f" k {inst.kappa}")
        if inst.seed is not None:
            line += f" seed {inst.seed}"
        lines.append(line)
    if inst.root is not None:
        lines.append(f"root {inst.root}")
    return "\n".join(lines) + "\n"


def realize_instance(inst: InstanceFile) -> tuple[Game, Graph, int | None]:
    """Build the Game and Graph an InstanceFile describes.

    Tabulated games get the synthetic split `Game.from_table` attaches,
    so the pruning bounds are usable on them as well.
    """
    g = Graph(inst.n, inst.edges)
    if inst.game_kind == "table":
        game = Game.from_table(inst.table)
    else:
        game = make_supersub_game(inst.n, weights=inst.weights,
                                  kappa=inst.kappa)
    return game, g, inst.root


def model_edges(model: str, n: int, *, p: float = 0.5,
                rng: random.Random | None = None) -> tuple[tuple[int, int], ...]:
    """Edge list for a named graph model. gnp retries until connected."""
    if model == "path":
        return tuple((i, i + 1) for i in range(n - 1))
    if model == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            edges.append((0, n - 1))
        return tuple(edges)
    if model == "star":
        return tuple((0, i) for i in range(1, n))
    if model == "complete":
        return tuple((i, j) for i in range(n) for j in range(i + 1, n))
    if model == "gnp":
        if rng is None:
            rng = random.Random()
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {p}")
        for _ in range(_GNP_RETRIES):
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p)
            if Graph(n, edges).is_connected((1 << n) - 1):
                return edges
        raise GraphSamplingError(
            f"no connected gnp graph sampled in {_GNP_RETRIES} tries for "
            f"n={n}, p={p}; raise p")
    raise ValueError(f"unknown model {model!r}")


def gen_instance(model: str, n: int, *, game_kind: str = "table",
                 seed: int | None = None, p: float = 0.5,
                 lo: int = 0, hi: int = 100,
                 root: int | None = None) -> InstanceFile:
    """Deterministic random instance for (model, n, seed). Table values
    are the values `rng.randint(lo, hi)` would draw (`randints`). Every
    argument is checked before the graph is sampled."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    if root is not None and not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    if game_kind not in GAME_KINDS:
        raise ValueError(f"unknown game kind {game_kind!r}")
    if game_kind == "table" and n > TABLE_MAX_N:
        raise ValueError(f"table games are capped at n <= {TABLE_MAX_N}; "
                         f"use game_kind='supersub' for larger n")
    if lo > hi:
        raise ValueError(f"lo {lo} exceeds hi {hi}")
    rng = random.Random(seed)
    edges = model_edges(model, n, p=p, rng=rng)
    if game_kind == "table":
        # The file format only records seeds for supersub games; the table
        # itself is the reproducible artifact here.
        table = tuple(randints(rng, lo, hi, (1 << n) - 1))
        return InstanceFile(n=n, edges=edges, game_kind="table", table=table,
                            root=root)
    weights = tuple(rng.randint(0, 10) for _ in range(n))
    kappa = rng.randint(0, 5)
    return InstanceFile(n=n, edges=edges, game_kind=game_kind,
                        weights=weights, kappa=kappa, seed=seed, root=root)
