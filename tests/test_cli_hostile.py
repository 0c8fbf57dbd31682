"""Hostile input through every CLI verb: seeded truncations, byte flips,
token swaps, deeply nested parentheses and long sums in fixture files and
scripts. Whatever the input, a verb exits 0, 1 or 2 and prints no traceback."""

import random

import pytest

from viewshift.cli import main

NESTED, TERMS = 3_000, 5_000


def _truncate(rng: random.Random, data: bytes) -> bytes:
    return data[:rng.randrange(len(data))]


def _flip(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def _swap(rng: random.Random, data: bytes) -> bytes:
    tokens = data.split(b" ")
    i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return b" ".join(tokens)


def _nest(rng: random.Random, data: bytes) -> bytes:
    return data + b"\nr9 = " + b"(" * NESTED + b"1" + b")" * NESTED + b"\n"


def _sum(rng: random.Random, data: bytes) -> bytes:
    return data + b"\nr9 = " + b" + ".join([b"1"] * TERMS) + b"\n"


# mutation -> (function, seeds); nesting and sums draw nothing at random
MUTATIONS = {"truncate": (_truncate, 3), "flip": (_flip, 3), "swap": (_swap, 3), "nest": (_nest, 1), "sum": (_sum, 1)}


@pytest.fixture(scope="module")
def origin(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    for name in ("pfun", "pdata", "forward-script"):
        assert main(["corpus", "extract", name, "--out", str(root / name)]) == 0
    return root


def _verbs(project, script, pdata, out, fixture: str) -> list[list[str]]:
    """One call of each of the seven verbs, reading project and script, or
    naming fixture."""
    p = str(project)
    return [
        ["apply", str(script), p, "--out", str(out / "apply"), "--checked"],
        ["op", "clean-imports", "Client", p, "--out", str(out / "op")],
        ["alpha-eq", p, str(pdata)],
        ["obs-eq", p, str(pdata), "--entries", "r1,r9"],
        ["eval", p, "r9"],
        ["render", p, "--out", str(out / "render")],
        ["corpus", "extract", fixture, "--out", str(out / "corpus")],
    ]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("target", ["Client.mfn", "EvalMod.mfn", "forward.vs"])
def test_hostile_input_exits_0_1_or_2_without_a_traceback(origin, tmp_path, capsys, mutation, target):
    mutate, seeds = MUTATIONS[mutation]
    for seed in range(seeds):
        rng = random.Random(f"{mutation}:{target}:{seed}")
        case = tmp_path / str(seed)
        project, scripts = case / "pfun", case / "scripts"
        for src, dst in ((origin / "pfun", project), (origin / "forward-script", scripts)):
            dst.mkdir(parents=True)
            for f in src.iterdir():
                (dst / f.name).write_bytes(f.read_bytes())
        path = (scripts if target.endswith(".vs") else project) / target
        path.write_bytes(mutate(rng, path.read_bytes()))
        fixture = mutate(rng, b"forward-script").decode("latin-1")
        for argv in _verbs(project, scripts / "forward.vs", origin / "pdata", case, fixture):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
