"""`from_edge_list` against the line-by-line parser it replaced.

Both parsers must build the same graph, labels, edges and adjacency, or
raise the same error: class, message and line number. The texts are the
`big-trees` benchmark texts of seeds 0-3, the edge lists of random trees
and of the glued-cycle family up to 10 vertices, and seeded mutations of
them, each of which either keeps a text plain or sends it to the line loop.
"""

import random
import sys
from pathlib import Path

import pytest

from hpindex import (EdgeListParseError, FamilyParams, ValidationError,
                     gen_hamiltonian_2block_family, io, random_tree, to_edge_list)
from reference_io import from_edge_list as reference_from_edge_list

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def big_trees_texts(seeds):
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import BigTrees
    finally:
        sys.path.remove(str(PERFBENCH))
    return [item["text"] for seed in seeds for item in BigTrees().inputs(seed)]


def small_texts():
    texts = [to_edge_list(random_tree(n, s)) for n in range(2, 11) for s in range(6)]
    texts += [to_edge_list(g) for g, _ in
              gen_hamiltonian_2block_family(FamilyParams(max_vertices=10))]
    return texts


def outcome(parse, text):
    try:
        g = parse(text)
    except (EdgeListParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return g.labels, g.edges, g.adj


def assert_same_outcome(text):
    assert outcome(io.from_edge_list, text) == outcome(reference_from_edge_list, text), text


def tokens_of(lines):
    return sorted({t for line in lines for t in line.split()}) or ["a"]


def _pick(lines, rng):
    return rng.randrange(len(lines)) if lines else 0


# each mutation takes the lines of an edge list and returns its new text
MUTATIONS = {
    "comment-line": lambda ls, rng: _join(_insert(ls, rng, "# a comment")),
    "tail-comment": lambda ls, rng: _join(_edit(ls, rng, lambda s: s + "  # tail")),
    "vertex-line": lambda ls, rng: _join(_insert(
        ls, rng, "v " + rng.choice(tokens_of(ls) + ["new", "v"]))),
    "crlf": lambda ls, rng: "\r\n".join(ls) + "\r\n",
    "tabs": lambda ls, rng: _join([s.replace(" ", rng.choice(["\t", " \t ", "  "]), 1)
                                   for s in ls]),
    "blanks-around": lambda ls, rng: _join([rng.choice(["", " ", "\t", " \t"]) + s
                                            + rng.choice(["", " ", "\t "]) for s in ls]),
    "blank-line": lambda ls, rng: _join(_insert(ls, rng, rng.choice(["", "  ", "\t"]))),
    "no-final-newline": lambda ls, rng: "\n".join(ls),
    "duplicate": lambda ls, rng: _join(_insert(ls, rng, ls[_pick(ls, rng)] if ls else "a b")),
    "reversed": lambda ls, rng: _join(_edit(ls, rng, lambda s: " ".join(s.split()[::-1]))),
    "self-loop": lambda ls, rng: _join(_insert(ls, rng, "{0} {0}".format(
        rng.choice(tokens_of(ls) + ["new"])))),
    "bad-token": lambda ls, rng: _join(_edit(ls, rng, lambda s: s + rng.choice(
        ["!", "?", "é", "#", "/x"]))),
    "three-tokens": lambda ls, rng: _join(_edit(ls, rng, lambda s: s + " z")),
    "one-token": lambda ls, rng: _join(_edit(ls, rng, lambda s: (s.split() or ["a"])[0])),
    "vertex-named-v": lambda ls, rng: _join(_rename(ls, rng.choice(tokens_of(ls)), "v")),
    "edge-at-v": lambda ls, rng: _join(_insert(ls, rng, rng.choice(
        ["v " + tokens_of(ls)[0], tokens_of(ls)[-1] + " v"]))),
    "unicode-space": lambda ls, rng: _join(_edit(ls, rng, lambda s: s.replace(
        " ", rng.choice(["\xa0", "\u2003", "\x0b", "\x0c", "\x1c", "\x85", "\u3000"]), 1))),
    "unicode-line-end": lambda ls, rng: rng.choice(["\u2028", "\x85", "\x0c", "\r"]).join(ls),
    "empty": lambda ls, rng: rng.choice(["", "\n", " ", "\n\n", "\t\n"]),
}


def _join(lines):
    return "\n".join(lines) + "\n"


def _insert(lines, rng, line):
    return lines[:(i := rng.randint(0, len(lines)))] + [line] + lines[i:]


def _edit(lines, rng, change):
    if not lines:
        return [change("a b")]
    i = _pick(lines, rng)
    return lines[:i] + [change(lines[i])] + lines[i + 1:]


def _rename(lines, old, new):
    return [" ".join(new if t == old else t for t in line.split()) for line in lines]


@pytest.mark.parametrize("seeds", [[0], [1], [2, 3]], ids=["seed0", "seed1", "seeds2-3"])
def test_big_trees_texts(seeds):
    texts = big_trees_texts(seeds)
    assert not any(io._NOT_PLAIN_LINE.search(text) for text in texts)
    for text in texts:
        assert_same_outcome(text)
    rng = random.Random(f"io-reference:{seeds}")
    for text in texts[::8]:
        for mutate in MUTATIONS.values():
            assert_same_outcome(mutate(text.splitlines(), rng))


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_mutation_of_small_texts(name):
    rng = random.Random(f"io-reference:{name}")
    for text in small_texts():
        assert_same_outcome(text)
        assert_same_outcome(MUTATIONS[name](text.splitlines(), rng))


def test_seeded_mutations_combined(monkeypatch):
    # up to three mutations on one text; counts the texts the one-pass
    # route read, so both routes are known to run
    plain = []
    read_in_one_pass = io._plain_ends

    def counted(text):
        ends = read_in_one_pass(text)
        plain.append(ends is not None)
        return ends

    monkeypatch.setattr(io, "_plain_ends", counted)
    rng = random.Random("io-reference:combined")
    texts = small_texts()
    for _ in range(3000):
        text = rng.choice(texts)
        for name in rng.sample(sorted(MUTATIONS), rng.randint(1, 3)):
            text = MUTATIONS[name](text.splitlines(), rng)
        assert_same_outcome(text)
        assert (io._NOT_PLAIN_LINE.search(text) is None) == is_plain(text), text
    assert 300 < sum(plain) < 3000


PLAIN_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.- \t")


def is_plain(text):
    """Every line two tokens of [A-Za-z0-9_.-] with spaces or tabs around
    them, lines ended by line feeds, the last one's optional."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return all(len(line.split()) == 2 and set(line) <= PLAIN_CHARS for line in lines)
