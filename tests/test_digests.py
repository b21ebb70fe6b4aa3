"""Byte-identity of the artifacts on fixed instances.

Each instance is written with ``random_instance`` and ``io.save_*`` and runs
through ``cli.main`` with ``--rel-file``, a route that uses no BLAS, so its
bytes hold on any numpy build.  The sha256 of ``schedule.json`` and of
``profile.json``, and ``repr`` of the reported reward, must equal the values
committed here.  A change that alters one on purpose updates it in the same
commit and names the instance and the reason in CHANGES.md.
"""

import hashlib
import json

import pytest

from adplacer import io, random_instance
from adplacer.cli import main
from adplacer.core import Ad, AdInventory, ProgramSpec, RelevanceMatrix, Scene, Valence

# name: (ads, slots, seed, tied, k, alpha, extra flags)
CASES = {
    "paper-alpha0": (24, 11, 1, False, 8, 0.0, ()),
    "paper-alpha0.5": (24, 11, 1, False, 8, 0.5, ()),
    "paper-alpha1": (24, 11, 1, False, 8, 1.0, ()),
    "400x120-alpha0": (400, 120, 1, False, 40, 0.0, ()),
    "400x120-alpha0.5": (400, 120, 1, False, 40, 0.5, ()),
    "400x120-alpha1": (400, 120, 1, False, 40, 1.0, ()),
    "1000x200-alpha0": (1000, 200, 1, False, 100, 0.0, ()),
    "1000x200-alpha0.5": (1000, 200, 1, False, 100, 0.5, ()),
    "1000x200-alpha1": (1000, 200, 1, False, 100, 1.0, ()),
    "tied-alpha1": (40, 20, 0, True, 10, 1.0, ()),
    "trivial-seed1": (24, 11, 1, False, 8, 0.5, ("--solver", "trivial", "--seed", "1")),
    "trivial-seed2": (24, 11, 1, False, 8, 0.5, ("--solver", "trivial", "--seed", "2")),
    "k0": (24, 11, 1, False, 0, 0.5, ()),
}

# name: (schedule.json sha256, profile.json sha256, repr(reward))
DIGESTS = {
    "paper-alpha0": (
        "17754548a7224980ca3a8a3e6216335c7cfcf63e32cbe6ec154d6e710733b8a5",
        "3e6ae661845ce161eec9a82dcf951e3fb9e5015f2ddefa6dca6b85474881e1b3",
        "3.615810525728672",
    ),
    "paper-alpha0.5": (
        "bbd7a4dfabec07eb48057e4f330a4ccbab71aca49f1116260d3a553217f75bbb",
        "d32d86f928da1335809c0683b6837bfe430f6e6c2dca6c04143e59d1a4368be6",
        "18.341969240354384",
    ),
    "paper-alpha1": (
        "3e25e829d4e1cf538540e00a3a6ba7b51e7b256ecbc6141965d44c98b74f6b17",
        "e354be1aee472434c9440102f552c87234a1107825f93a60afeeb642e2975466",
        "35.2220770932927",
    ),
    "400x120-alpha0": (
        "1e3bcb99ba3fd19259f29f832ae9c0e3e3fcbb81f6ed9fe77ec57c8aa57f790d",
        "f33a9e3f8577f8164c1612b47ffe4fcb08e3de106424d6035c952a740808269e",
        "31.738355124226146",
    ),
    "400x120-alpha0.5": (
        "f770a4b09243661a447f3b083995bd7a71ea90a74f9a0de8748aeeb7d48b8827",
        "ae7954588e073db264ab84ffa1c98de3702660e2be8c001889ce0ba7bdf60506",
        "1049.7869179676345",
    ),
    "400x120-alpha1": (
        "3e6de8718dd70f9453b525632f303de661911cd72d8a9809ea4d8486d1440c7f",
        "e729e4c2174f5b8022971a4aad79211aa9d55a5d50738cb289105502f8f402fb",
        "2089.3358212385983",
    ),
    "1000x200-alpha0": (
        "6e054f3e96847f7028055bf0caf88d825a16515913a92b467d4a5db0c31501db",
        "cea8ff6a87f1bee06b332126b3cc46e146c438fd1e380de02533b7d890d246bb",
        "77.7656328820388",
    ),
    "1000x200-alpha0.5": (
        "094db7db2085c8b55d03e6d2d9918ea33fe35d380838d762332a71c0890c2ff4",
        "c741288c92220bc478b2eda10b0610c44b9b8ffa16dca79b5a39cabbd324b2bf",
        "4291.822849301601",
    ),
    "1000x200-alpha1": (
        "4147ad4f0141b8c5a6e64a7bf496c6393454a2714820f242d22d867a24c99010",
        "30efd5719e9f45ca0e9081dc30b57bc4c7ac95d54d9cffe245bee1800c98c7bd",
        "8553.687060884326",
    ),
    "tied-alpha1": (
        "4273869e1b74cca17545a98b7a4b437e7ae83f9c20d2b31f23248b1fd45003a0",
        "60b5871d93221ab8845f4df7c2fb1de5a7535604dcc7b44cd717dcde1376518c",
        "84.8",
    ),
    "trivial-seed1": (
        "407284b367caf71668921c11d267408fe80dceb84f9ce7f0c4d755ebbd27e23c",
        "253284ff3bf343f456403a420d6a7c355dcbe80f8f54bdb2da4998d5ef54b49c",
        "None",
    ),
    "trivial-seed2": (
        "b8b5270b714f27e1c87a5ea78c438da9c6e0e4b5373d446c904ee3d3b16e46be",
        "06e35464747fc3fdf496e65ec8d9e7d1a89118a2f1fa1724c3dd85768e841eb9",
        "None",
    ),
    "k0": (
        "a3020168cc469e21d29a27d4f0aa406e371f6439c9cdf5dd4f695ad5b327ca94",
        "e20635dff90699e55ae5dc51a4bd419b569bd7b77bd11e58f7b29115082c5bdf",
        "0.0",
    ),
}


def _rounded(v: float, hv: bool) -> float:
    """``v`` to one decimal, an HV valence staying above 0.5."""
    return max(round(v, 1), 0.6) if hv else round(v, 1)


def _tied(program, inventory, rel):
    """The instance with valences and relevance rounded to one decimal, so
    that many placements tie."""
    scenes = tuple(Scene(s.id, Valence(round(s.valence.value, 1))) for s in program.scenes)
    ads = tuple(Ad(a.id, Valence(_rounded(a.valence.value, a.valence.value > 0.5)))
                for a in inventory.ads)
    return ProgramSpec(scenes), AdInventory(ads), RelevanceMatrix(rel.values.round(1))


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """Return the files of one instance, written on first use."""
    written = {}

    def files(n_ads, n_slots, seed, tied):
        key = (n_ads, n_slots, seed, tied)
        if key not in written:
            root = tmp_path_factory.mktemp("instance")
            program, inventory, rel = random_instance(n_ads, n_slots, seed)
            if tied:
                program, inventory, rel = _tied(program, inventory, rel)
            written[key] = root / "program.json", root / "inventory.json", root / "rel.txt"
            io.save_program(program, written[key][0])
            io.save_inventory(inventory, written[key][1])
            io.save_relevance(rel, written[key][2])
        return written[key]

    return files


@pytest.mark.parametrize("name", CASES)
def test_artifacts_match_their_digests(tmp_path, capsys, instance_files, name):
    n_ads, n_slots, seed, tied, k, alpha, flags = CASES[name]
    program, inventory, rel = instance_files(n_ads, n_slots, seed, tied)
    out = tmp_path / "out"
    assert main([
        "run", "--program", str(program), "--inventory", str(inventory), "--rel-file", str(rel),
        "--k", str(k), "--alpha", repr(alpha), "--out", str(out), *flags,
    ]) == 0
    capsys.readouterr()
    got = (
        hashlib.sha256((out / "schedule.json").read_bytes()).hexdigest(),
        hashlib.sha256((out / "profile.json").read_bytes()).hexdigest(),
        repr(json.loads((out / "report.json").read_text())["reward"]),
    )
    assert got == DIGESTS[name]
