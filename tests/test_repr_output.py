"""The stdout of `repr` and of `classify` on it, pinned by SHA-256.

For each n <= 4 and p in {3, 5, 2^31 - 1}, `repr` runs on every label of
size n in `bipartitions_of(n)` order, and `classify --input -` reads each
of those outputs back.  The digests are of the concatenated stdout of
each command, so every label's output is covered byte for byte.  They
were recorded from the program before its normal forms were built on the
trusted path (no product, no validating constructor).
"""

import hashlib
import io

import pytest

from exospringer import cli
from exospringer.bicomb import bipartitions_of, format_bipartition

BIG = 2**31 - 1

# (n, p) -> (repr digest, classify digest); classify's output names the
# label, the dimensions and the stabilizer dimension, none of which depends
# on p
STDOUT_SHA256 = {
    (1, 3): ("066119750787b72101329954808700f565e8f8f9112114412c94f5624396193c",
             "47f46daae809886a8ec20352a5f02ce28db8f86930e2d120721d0d8d374f9405"),
    (1, 5): ("9a2d869f3133eb5c40ac5c65ec1e6e399eadecd53daf04908f32aaa4586202ff",
             "47f46daae809886a8ec20352a5f02ce28db8f86930e2d120721d0d8d374f9405"),
    (1, BIG): ("8f3084381e9021ae00c566ba0b88bbbd5484136a041928809b3bb57e17ffc6fc",
               "47f46daae809886a8ec20352a5f02ce28db8f86930e2d120721d0d8d374f9405"),
    (2, 3): ("69f51b3067c07c7a3f56452bf3ed84839f4e80cd2368c2f0d8e9b5b17d1937cf",
             "1f9c85772120ef034dcde695b4ce0ebd471d04f08c4e82021c07803220a161d0"),
    (2, 5): ("e534802c83a9627ef8b7f34ce8ae295d8209d4b19ad6b8a76e18cac66db1420c",
             "1f9c85772120ef034dcde695b4ce0ebd471d04f08c4e82021c07803220a161d0"),
    (2, BIG): ("ea7bfad251639793aa51b9395e435c66061c4dd6563224c471b73f5bedc8a4cc",
               "1f9c85772120ef034dcde695b4ce0ebd471d04f08c4e82021c07803220a161d0"),
    (3, 3): ("a3f7a070e626df8c51ee8a56033833db0b080dcfe3275a457365110c4a3db5bf",
             "a3a5dba85c3728000ba04d5b23ce5825dd77b15b0d5a0b33d364b7ce20de7aaa"),
    (3, 5): ("5580385309478b5eb52dd91c75ff4cc9f48e52870caa62ec872ab62472e2037f",
             "a3a5dba85c3728000ba04d5b23ce5825dd77b15b0d5a0b33d364b7ce20de7aaa"),
    (3, BIG): ("7807df3d9a9792be04179beaf645ef9c390e3846a83d77667005b6d4c90630b0",
               "a3a5dba85c3728000ba04d5b23ce5825dd77b15b0d5a0b33d364b7ce20de7aaa"),
    (4, 3): ("40cba4820797fab7a23b4075a62eef4bb2e0c2f404afb3dfda7e2f05fe200437",
             "06ccc687d3c06bd9857d23c277fba41e040748e8f659df5b19a26aad3687425a"),
    (4, 5): ("e6ecc10b96628d407ef728a10d499c0192243eb04976f563884b3fba0f52c277",
             "06ccc687d3c06bd9857d23c277fba41e040748e8f659df5b19a26aad3687425a"),
    (4, BIG): ("1c744e4cecbe8254dc530238e434dfa90e6a49fbafdb8402cc8e1e913ab3784f",
               "06ccc687d3c06bd9857d23c277fba41e040748e8f659df5b19a26aad3687425a"),
}


def run(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def sha256(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("n, p", sorted(STDOUT_SHA256))
def test_repr_and_classify_output_is_unchanged(monkeypatch, capsys, n, p):
    pairs = [run(monkeypatch, capsys,
                 ["repr", "--n", str(n), "--p", str(p),
                  "--label=" + format_bipartition(label)])
             for label in bipartitions_of(n)]
    labels = [run(monkeypatch, capsys, ["classify", "--input", "-"], pair)
              for pair in pairs]
    assert (sha256(pairs), sha256(labels)) == STDOUT_SHA256[n, p]
