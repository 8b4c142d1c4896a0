import hashlib
import random
import tracemalloc

import pytest

from graphcsg import (Graph, InstanceFile, InstanceFormatError, gen_instance,
                      model_edges, parse_instance_text, realize_instance,
                      write_instance)
from graphcsg.instances import MODELS


def test_round_trip_table_instance():
    inst = gen_instance("cycle", 4, game_kind="table", seed=7)
    text = write_instance(inst)
    assert parse_instance_text(text) == inst
    assert inst.seed is None  # the table itself is the reproducible part


def test_round_trip_supersub_instance():
    inst = gen_instance("star", 5, game_kind="supersub", seed=9, root=2)
    assert inst.seed == 9
    assert inst.root == 2
    text = write_instance(inst)
    assert parse_instance_text(text) == inst


def test_gen_is_deterministic_per_seed():
    a = gen_instance("gnp", 6, seed=11, p=0.5)
    b = gen_instance("gnp", 6, seed=11, p=0.5)
    c = gen_instance("gnp", 6, seed=12, p=0.5)
    assert a == b
    assert a != c


def test_realize_table_instance():
    inst = gen_instance("path", 3, game_kind="table", seed=1)
    gm, g, root = realize_instance(inst)
    assert g.edges == ((0, 1), (1, 2))
    assert root is None
    assert gm.value(0) == 0
    for m in range(1, 8):
        assert gm.value(m) == inst.table[m - 1]
    assert gm.decomposed  # tables always get the synthetic split


def test_realize_supersub_instance():
    inst = parse_instance_text(
        "csg 1\nn 2\ne 0 1\ngame supersub w 1 1 k 0\n")
    gm, g, root = realize_instance(inst)
    assert gm.value(0b11) == 4
    assert gm.value(0b01) == 1
    assert gm.decomposed


def test_parse_instance_convenience():
    gm, g, root = realize_instance(parse_instance_text(
        "csg 1\nn 3\ne 0 1\ne 1 2\nroot 1\ngame table 1 2 3 4 5 6 7\n"))
    assert root == 1
    assert gm.value(0b111) == 7
    assert g.n == 3


def test_round_trip_table_spanning_many_batches():
    # 2^14 - 1 values print and parse in several batches; the text is the
    # one-join text, and a bad token in a later batch is still named.
    inst = gen_instance("gnp", 14, game_kind="table", seed=5)
    text = write_instance(inst)
    assert text.splitlines()[-1] == \
        "game table " + " ".join(str(x) for x in inst.table)
    assert parse_instance_text(text) == inst
    head, _, values = text.rpartition("game table ")
    toks = values.split()
    with pytest.raises(InstanceFormatError, match="needs 16383 values"):
        parse_instance_text(head + "game table " + " ".join(toks[:-1]))
    toks[-3] = "7x"
    with pytest.raises(InstanceFormatError, match="'7x' is not an integer"):
        parse_instance_text(head + "game table " + "\t".join(toks))


def test_bad_table_token_past_the_first_batch_is_named_with_its_line():
    vals = [str(v % 97) for v in range((1 << 13) - 1)]
    vals[5000] = "7x"
    text = "csg 1\nn 13\ne 0 1\ngame table " + " ".join(vals) + "\n"
    with pytest.raises(InstanceFormatError,
                       match="^line 4: table value '7x' is not an integer$"):
        parse_instance_text(text)


def test_table_tokens_that_int_accepts_still_parse():
    inst = parse_instance_text("csg 1\nn 2\ngame table +5 -0 3\n")
    assert inst.table == (5, 0, 3)


# sha256 of write_instance(gen_instance(...)), recorded before the table
# draw was inlined: every generated byte must stay as it was, because
# committed reference answers depend on the instance text for each seed.
GOLDEN_INSTANCES = [
    (("gnp", 20), dict(seed=3, p=0.15),
     "ca32bc38ee50073f8f7f53f2a9d8aef3e2f27d7d8d8bb0f695268a0395d24c0f"),
    (("gnp", 14), dict(game_kind="supersub", seed=5, p=0.2),
     "8f914cadc9c07182bb0d1a651ee39df1c3ce3b7e94b7d73e992ff8531993bb9d"),
    (("cycle", 9), dict(seed=2, lo=-50, hi=50),
     "4fab5a7b7cc2332bf5a9d6a25b9abeddf7939235fd42728e77bb5c80beca5c5a"),
    (("star", 6), dict(seed=4, lo=7, hi=7),
     "ed451eef11ee111a06e1a1a5b6157b172b70ea80ff88f086a2ef0a66a703b273"),
    (("complete", 5), dict(seed=8, lo=0, hi=2 ** 40),
     "19f87b51ac8b00cd4f13ce9b413d15fb5984981e4f2009450a4b155348467cf6"),
    (("path", 12), dict(seed=0, root=3),
     "0f0cdbcd7a9370a32de606d4efee536ad0bc868e3e0dd549bb42ef66ed48c0cd"),
]


@pytest.mark.parametrize("args,kwargs,digest", GOLDEN_INSTANCES)
def test_generated_instance_text_is_pinned(args, kwargs, digest):
    text = write_instance(gen_instance(*args, **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gen_draws_the_table_without_a_second_copy():
    # The values stream into the one tuple the instance keeps; a list drawn
    # first and then copied would double the peak.
    tracemalloc.start()
    try:
        inst = gen_instance("path", 17, game_kind="table", seed=1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.table) == (1 << 17) - 1
    assert peak <= 1.5 * kept, (peak, kept)


@pytest.mark.parametrize("text,fragment", [
    ("csg 2\nn 2\ngame table 1 1 3\n", "header"),
    ("n 2\ngame table 1 1 3\n", "header"),
    ("csg 1\ne 0 1\nn 2\ngame table 1 1 3\n", "line 2: edge before n"),
    ("csg 1\nn 2\ne 0 a5\ngame table 1 1 3\n",
     "line 3: edge endpoint 'a5' is not an integer"),
    ("csg 1\nn 2\ne 0 1 2\ngame table 1 1 3\n", "line 3"),
    ("csg 1\nn 2\ne 0 0\ngame table 1 1 3\n", "line 3"),
    ("csg 1\nn 2\ne 0 2\ngame table 1 1 3\n", "line 3"),
    ("csg 1\nn 2\ngame table 1 1\n", "table needs 3 values for n=2"),
    ("csg 1\nn 2\ngame table 1 1 x\n", "not an integer"),
    ("csg 1\nn 2\ngame supersub w 1 k 0\n", "line 3"),
    ("csg 1\nn 2\ngame supersub w 1 1 k -1\n", "nonnegative"),
    ("csg 1\nn 2\nroot 5\ngame table 1 1 3\n", "root 5 out of range"),
    ("csg 1\nn 2\nn 3\ngame table 1 1 3\n", "duplicate n"),
    ("csg 1\nn 2\ngame table 1 1 3\ngame table 1 1 3\n", "duplicate game"),
    ("csg 1\nn 2\ngame table 1 1 3\nbogus 4\n", "unknown directive"),
    ("csg 1\nn 2\n", "missing game"),
    ("csg 1\ngame table 1\n", "n"),
    ("csg 1\nn 0\ngame table\n", "n"),
    ("csg 1\nn 21\ngame table 1 2 3\n", "table games are capped at n <= 20"),
    ("csg 1\nn 64\ngame supersub w 1 k 1\n", "n must be in 1..63"),
    ("csg 1\nroot 0\nn 2\ngame table 1 1 3\n",
     "line 2: root before n is declared"),
    ("csg 1\ngame table 1 1 3\nn 2\n", "line 2: game before n is declared"),
    ("csg 1\nn 2\nroot 0\nroot 1\ngame table 1 1 3\n",
     "line 4: duplicate root"),
    ("csg 1\nn 2 3\ngame table 1 1 3\n", "line 2: n takes one integer"),
    ("csg 1\nn 2\nroot\ngame table 1 1 3\n",
     "line 3: root takes one integer"),
    ("csg 1\nn 2\ngame\n", "line 3: game needs a kind"),
    ("csg 1\nn 2\ngame edgesum 1 2\n",
     "line 3: unknown game kind 'edgesum'"),
    ("csg 1\nn 2\ngame supersub w 1 1 k 0 seed\n",
     "line 3: unexpected trailing tokens 'seed'"),
    ("csg 1\nn 2\ngame supersub 1 1 k 0\n",
     "line 3: supersub game starts with 'w'"),
    ("csg 1\ncsg 1\nn 2\ngame table 1 1 3\n",
     "line 2: unknown directive 'csg'"),
    # a line with two faults reports the first of: unknown, duplicate,
    # before n, arity, values
    ("csg 1\nn 2\nn\n", "line 3: duplicate n"),
    ("csg 1\nn 2\nroot 0\nroot\n", "line 4: duplicate root"),
    ("csg 1\nroot\nn 2\n", "line 2: root before n is declared"),
    ("csg 1\ne 0\nn 2\n", "line 2: edge before n is declared"),
    ("csg 1\nn 2\ngame table 1 1 3\ngame\n", "line 4: duplicate game"),
    ("csg 1\nn 2 x\n", "line 2: n takes one integer"),
    ("", "line 1: missing 'csg 1' header"),
    ("\n  \n\t\n", "line 1: missing 'csg 1' header"),
    ("csg 1\n", "missing n declaration"),
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert fragment in str(err.value), str(err.value)


def test_blank_lines_between_directives_are_ignored():
    text = "csg 1\nn 3\ne 0 1\ne 1 2\ngame table 1 2 3 4 5 6 7\nroot 1\n"
    spaced = "\n  \ncsg 1\n\nn 3\n\t\ne 0 1\n \t \ne 1 2\n\n" \
        "game table 1 2 3 4 5 6 7\n   \nroot 1\n\n"
    assert parse_instance_text(spaced) == parse_instance_text(text)


def test_model_edges_shapes():
    assert model_edges("path", 4) == ((0, 1), (1, 2), (2, 3))
    assert model_edges("cycle", 4) == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert model_edges("cycle", 2) == ((0, 1),)
    assert model_edges("star", 4) == ((0, 1), (0, 2), (0, 3))
    assert len(model_edges("complete", 5)) == 10
    assert model_edges("path", 1) == ()
    with pytest.raises(ValueError):
        model_edges("torus", 3)


def test_gnp_edges_are_connected_and_seeded():
    rng = random.Random(20)
    for _ in range(20):
        n = rng.randint(1, 10)
        edges = model_edges("gnp", n, p=0.3, rng=random.Random(rng.random()))
        g = Graph(n, edges)
        assert g.is_connected(g.full_mask)


def test_gnp_connectivity_test_agrees_with_the_graph():
    from graphcsg.instances import _connects_all
    rng = random.Random(23)
    for n in range(1, 11):
        for _ in range(30):
            p = rng.random()
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p)
            g = Graph(n, edges)
            assert _connects_all(n, edges) == g.is_connected(g.full_mask)


def test_gnp_gives_up_when_density_is_hopeless():
    with pytest.raises(ValueError, match="raise p"):
        model_edges("gnp", 5, p=0.0, rng=random.Random(0))


def test_models_constant_lists_the_generators():
    assert set(MODELS) == {"path", "cycle", "star", "complete", "gnp"}
    for m in MODELS:
        inst = gen_instance(m, 4, seed=3)
        gm, g, _ = realize_instance(inst)
        assert g.is_connected(g.full_mask)


def test_instance_file_rejects_unknown_kind():
    with pytest.raises(ValueError):
        realize_instance(InstanceFile(n=2, edges=((0, 1),),
                                      game_kind="mystery"))


def test_realize_instance_copies_the_table_once():
    # The game's 2^n-entry list is the only table-sized allocation, so the
    # peak stays near what the realized instance keeps. The graph's two
    # half-width neighborhood tables hold 2^9 + 2^8 entries at n = 17.
    inst = gen_instance("path", 17, game_kind="table", seed=1)
    tracemalloc.start()
    try:
        realized = realize_instance(inst)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert realized[0].value((1 << 17) - 1) == inst.table[-1]
    assert peak <= 1.5 * kept, (peak, kept)


def test_table_text_round_trip_holds_no_string_per_value():
    # Printing and parsing work in batches: their peaks stay within a few
    # table-sized arrays, where one string object per value would take
    # about 60 bytes a value.
    inst = gen_instance("path", 17, game_kind="table", seed=1)
    peaks = []
    tracemalloc.start()
    try:
        text = write_instance(inst)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        parse_instance_text(text)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 40 * len(inst.table), peaks


@pytest.mark.parametrize("root", [-1, 5, 9])
def test_gen_refuses_a_root_outside_the_agents(root):
    with pytest.raises(ValueError, match=f"root {root} out of range"):
        gen_instance("path", 5, root=root)
    assert gen_instance("path", 5, root=4).root == 4
