import random
import tracemalloc

import pytest

from graphcsg import (InstanceFile, InstanceFormatError, gen_instance,
                      make_graph, model_edges, parse_instance,
                      parse_instance_text, realize_instance, write_instance)
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
    gm, g, root = parse_instance(
        "csg 1\nn 3\ne 0 1\ne 1 2\nroot 1\ngame table 1 2 3 4 5 6 7\n")
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
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert fragment in str(err.value), str(err.value)


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
        g = make_graph(n, edges)
        assert g.is_connected(g.full_mask)


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
    # peak stays near what the realized instance keeps. n = 17 is past the
    # graph's per-subset caches, which would otherwise dominate both sides.
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
