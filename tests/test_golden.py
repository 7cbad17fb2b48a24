"""Byte-identity of what the workbench writes.

SHA-256 digests of the table text of every witness family, of the
constructions the benchmark's `sweep` workload runs, and of every file
``save_catalog`` writes for orders 1-5. They were taken when the tables
were still built cell by cell in Python, so a change in how tables are
built, stored or persisted that alters a single byte fails here.
"""

import hashlib
import os

import pytest

from bck import (
    FAMILY_NAMES,
    bck_union,
    direct_product,
    family,
    iseki_extension,
    save_catalog,
    tableio,
)

FAMILY_SIZES = (3, 4, 16, 48, 128)

FAMILY_DIGESTS = {
    "C3": "50333b2ff5848cb0d07a5932aaaf60a2d451a17f60e33e86972e9766a5b87b47",
    "C4": "73c7c30579c8d2b24da02d0d04034b444cd3082f5f228b919a42babb3a02bbd9",
    "C16": "334a32d718baea19ca3732b34a474d8e6cc919a9e838ea6557e0ad17eeec9247",
    "C48": "dbffce63e5d20070c2883b28cbfb867b3e805f1bfd94ff92246e63702dd322ea",
    "C128": "447e7c6a9704e7e6c0d59c390a932a3703592878a8e11d00ed5ec12e06c7a556",
    "D3": "c7a7f7be42e6b482202e9af0306d29778060070a8fb1bfdcd31437b6cc99bcad",
    "D4": "779e122bb6eddff668d80eee0c6d509294e56ea0113d3d3e8fd44796c2fb9d7e",
    "D16": "938e89e660123d432f1de314be3cb7ff32e3c70565023eeed318f597d7ab8ee2",
    "D48": "229865a554c74fcfff21f4c6ce84189329d46a6a84297f32417a2fcffe1848ea",
    "D128": "65d625f2fcdeb4de43d466e08a8e38a788b2d305525dccef48fb24394cf5559d",
    "Q3": "50333b2ff5848cb0d07a5932aaaf60a2d451a17f60e33e86972e9766a5b87b47",
    "Q4": "63470de42c9eaa1f5ef9b16c160e4fd19a6617a12d3d51c77c25ac773411e9b1",
    "Q16": "7807c8fcb85af7ef582f765b93157164e2d7c2a4093e1851d0e55931ff1dd9d5",
    "Q48": "4c77c318270a9d353843d0e2c7c30e74c5e6e9f0451fb269eb8ef6150d266ea4",
    "Q128": "4c610e6b04d297d310195ab41e0d88d4ea7bef8cc943d5087491c33d4504d295",
    "B3": "72482bf2ef5d3406a9b0ab9398974ec7e63b8bd025f17be648e31d87d7894450",
    "B4": "b4424086643296b225d898721d7c7772645eef04b13033f43f76a23afd8a9dac",
    "B16": "bec6223671348eb23613cf48452389fbc0e383fca94394b4c58db1d7b905d7f6",
    "B48": "82044982f3ee21b989ff5a2bb509a446d40ac65618c4b7967b5d0e7113ee5ad5",
    "B128": "2b75cbbf7761dbcf42759c51cb4e9dff8d108ebfd2ae9202b51be6097482eaa2",
    "M3": "72482bf2ef5d3406a9b0ab9398974ec7e63b8bd025f17be648e31d87d7894450",
    "M4": "7ae40a19b14a915631e357d4a21773ad82b270c16e76374db67137dc5367b4c0",
    "M16": "868764a313425b87eb0d9d2cd52110215df52485e2257bcee9d4e568689c990b",
    "M48": "a9bc08588d3c692014702bfc9b889fafaa15ef357d49987bfc0a6c04ab16c069",
    "M128": "0b6b1dd542672bba443c787a7ffb04c7f4701d100dc452dda26a9629573e955e",
    "P3": "50333b2ff5848cb0d07a5932aaaf60a2d451a17f60e33e86972e9766a5b87b47",
    "P4": "6702d150ef9e372ca41d6bab077d1bb5a62707f9f096426ad16878f90e48f41f",
    "P16": "55c4adc5f6785f58b7b4aedf77c8ab2788c74e1f75f506a1a1af2c01732ca03d",
    "P48": "ac97ec905fd9cf9c4fb7e24bd05723b0dc9a77320b2779eea2987c493aacda23",
    "P128": "5ec1f74d9e6dfa6600f634bc9d9f127880734775f27cbf1d73e0af8c57594e7e",
    "Pprime3": "50333b2ff5848cb0d07a5932aaaf60a2d451a17f60e33e86972e9766a5b87b47",
    "Pprime4": "04ea2097b06a4279b716385b922fa62dd29995fde1a3f3ef6d2705c53a4f2e1f",
    "Pprime16": "c4057888d08b1481a57d9e6a58236b9e72052490046cdaf523a7b0ff0b8b52db",
    "Pprime48": "b319e15a9d907d85b6c233b1c3cd88ffc28dd3cf607dc652286b23e8bf861509",
    "Pprime128": "ff9b9eea89f298072cbcc146c9cf060b669b1249f636f843691cfd0bd69f89f5",
}

# B, M, P and P' at n = 1024, taken while they were still built by their
# n-3 unions with two() or top extensions, one step at a time
STEPPED_FAMILY_DIGESTS = {
    "B": "59fc23daa3bb5cfcf0911f32a78a9a8968ab5be6700b1712f662a70fad4a1581",
    "M": "ffe339e217ee33b54eb53b67e3f58debf1b80821d65b6f59dd9be31aaf2c8487",
    "P": "0db31691b3c951247ee07ac2bbf8bc89dfa9bb3c3fa63b922ba34c361aaaf76d",
    "Pprime": "78cffdefa23c1f07ecdc9d3bd8545155158cf0c9c0fe757a877093c56f78a01c",
}

# (operation, operands) as in perfbench/workloads.py, without relabeling
CONSTRUCTIONS = (
    ("union", ("M", 20), ("C", 30)),
    ("union", ("B", 20), ("Q", 24)),
    ("union", ("Pprime", 16), ("D", 12)),
    ("product", ("C", 6), ("C", 7)),
    ("product", ("D", 4), ("Q", 8)),
    ("product", ("Q", 5), ("M", 9)),
    ("iseki", ("B", 40)),
    ("iseki", ("P", 40)),
)

CONSTRUCTION_DIGESTS = (
    "a8dad5d700a19f1adacac60107a4e88bf81af3e6c97bbef9305bac37be150159",
    "947f1fac7434b49026d11205c86e510b4579a9d80ba359473eb089a4eb2d0d80",
    "7c5eda72025730bb61b4aa329c600e0572e17f3c011fab4a38d4618c87fbb40a",
    "1279b1834f072b7fbcbb95aaaed6608930a012b5bccc79aba2b3c7e12c0d80e6",
    "d9b3992d8d9361ddde018299c72c52b4a45b330b37b226e0f57e7449de0ed63e",
    "d617cf27c860bfc12d29da12e13d7a36455006d4cfaa7958776e97cfac9c2adc",
    "d6e342c82849c7dfecf61ebbbd4f0f39d1d26fb42ff13939b7cf55259706be01",
    "c19023b899d2a3ec08486cd1c747b29aeb7df0fd8604c09b3b25ac1dcb063370",
)

# over the sorted file names, each name and its bytes followed by a NUL
CATALOG_DIGESTS = {
    1: "96de00feb25a2ba757fe1ce7009e38dea514de18c94c9427a08970ec171e5189",
    2: "ef90bc81668624349dc9f0ad9badcca719b2becc1632784e2a0e5e4cd77b0c55",
    3: "37b0ef3a7809fef0baff6be840ec4d2402b6b1e8adce5dd597500266d5eea6e1",
    4: "d0e31666116e92343c4442be1067f78b9cca05b4254318c1ac3087842cf46ed6",
    5: "3ff65106dda18c5c0494a3e9a3e5135a7c9b5c2f92547c45b55356d140460b10",
}


def _digest(algebra) -> str:
    return hashlib.sha256(tableio.dumps(algebra.order, algebra.table).encode()).hexdigest()


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_tables_are_byte_identical(name):
    for n in FAMILY_SIZES:
        assert _digest(family(name, n)) == FAMILY_DIGESTS[f"{name}{n}"], (name, n)


@pytest.mark.parametrize("name", STEPPED_FAMILY_DIGESTS)
def test_stepped_families_at_1024_are_byte_identical(name):
    assert _digest(family(name, 1024)) == STEPPED_FAMILY_DIGESTS[name]


@pytest.mark.parametrize(
    "construction, digest",
    zip(CONSTRUCTIONS, CONSTRUCTION_DIGESTS),
    ids=["-".join([op] + [f"{name}{n}" for name, n in rest]) for op, *rest in CONSTRUCTIONS],
)
def test_construction_tables_are_byte_identical(construction, digest):
    op, *operands = construction
    algebras = [family(name, n) for name, n in operands]
    combine = {"union": bck_union, "product": direct_product, "iseki": iseki_extension}[op]
    assert _digest(combine(*algebras)) == digest


def test_saved_catalogs_are_byte_identical(small_catalogs, tmp_path):
    for n, catalog in small_catalogs.items():
        directory = tmp_path / str(n)
        save_catalog(catalog, directory)
        digest = hashlib.sha256()
        for fname in sorted(os.listdir(directory)):
            digest.update(fname.encode() + b"\0" + (directory / fname).read_bytes() + b"\0")
        assert digest.hexdigest() == CATALOG_DIGESTS[n], n
