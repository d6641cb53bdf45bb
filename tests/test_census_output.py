"""The stdout of the census and Klyachko verify suites, pinned by SHA-256.

The calls are the benchmark's `census` workload items (with its seed,
288545019, the program seed it derives from benchmark seed 1), the
census and Klyachko suites at n = 2, p = 5, the orbit check at n = 1
and at n = 2, p = 3, and the Springer table joined to its census counts
at n = 2, p = 3.  The digests are of the whole stdout, each
recorded from the program before the change it guards: the cone test's
rewrite on row tuples, for the n = 2, p = 5 calls the labelling of group
points through x - 1, and for the n = 2, p = 3 orbit checks the reading
of each stabilizer order off the union-find's orbit sizes, where the
program before it listed Sp_4(F_3) (about 8 s a call).  Any change of
one byte fails.
"""

import hashlib

import pytest

from exospringer import cli

SEED = "288545019"

STDOUT_SHA256 = {
    "verify --suite census --n 2 --p 3 --flavor lie --seed " + SEED:
        "afd1410435e9ab66ee69d828988b0f7dc79df7cb92a263c4e4843c641a970fcc",
    "verify --suite census --n 2 --p 3 --flavor group --seed " + SEED:
        "44013ee978f827f9d4acbf6fec0351e44b9822b2ca8cd8adf442c9d8718c2149",
    "verify --suite census --n 1 --p 5 --flavor lie --seed " + SEED:
        "be5d2b48f54ffdcd73cd7ea178160a735771914f4d4d7d2b09425db438e54012",
    "verify --suite census --n 1 --p 5 --flavor group --seed " + SEED:
        "fb5d87af58e0cc83e26493442d49b3de1631450a963294a27593ae47f161a9ec",
    "verify --suite census --n 1 --p 3 --flavor lie --seed " + SEED
    + " --check-orbits":
        "1a839188d3e8314cb611c0d3d41f329035559f18ba82b5bcf056dbc782da9c0c",
    "verify --suite census --n 1 --p 3 --flavor group --seed " + SEED
    + " --check-orbits":
        "26fa6ee891e934ec13cd0370a5268e1183b43039bb38acf5389ff955c70d10bb",
    "verify --suite census --n 1 --p 5 --flavor lie --seed " + SEED
    + " --check-orbits":
        "b87d16afb98de0e18d2120b361a4d58d797aee2d32b38c20ae5ee114ade04c43",
    "verify --suite census --n 1 --p 5 --flavor group --seed " + SEED
    + " --check-orbits":
        "a3c9c59945854ce36d110853771b2715c88f1f052ca9b9b993a5d3abcd75aec3",
    "verify --suite census --n 2 --p 3 --flavor lie --seed " + SEED
    + " --check-orbits":
        "0273dce196aabb1672a251738002544689e7bf238073101682359bc2724aa738",
    "verify --suite census --n 2 --p 3 --flavor group --seed " + SEED
    + " --check-orbits":
        "0ba16c12b6be5571025b85959599645a7cfa202d1e5725638f7722e5f8e2394a",
    "verify --suite census --n 2 --p 5 --flavor lie --seed " + SEED:
        "64befc59443f0db4b049d3d5f7032c3cc20bec325e31bbf0b943855275c2ac53",
    "verify --suite census --n 2 --p 5 --flavor group --seed " + SEED:
        "302bd3149612d32262593cdbcac0e0f62c56b7e932a3deb3d3468800a1df324d",
    "verify --suite klyachko --n 2 --p 3":
        "afee2539621b506e9b7a21e588328b276edc06a793cc897717f200ef36d748f5",
    "verify --suite klyachko --n 2 --p 5":
        "7a8565fe85b9de4468b005457905b782d44551fcfa6054765160081199e6d1f4",
    # the census counts joined to the Springer table, recorded while the
    # table was still built from record objects
    "springer --n 2 --format json --census-p 3":
        "adc5106d77d3e89494eb2b77d54f751c7c8e17a36704fcae7560276aec4ee0ae",
}


@pytest.mark.parametrize("call", sorted(STDOUT_SHA256))
def test_census_output_is_unchanged(call, capsys):
    rc = cli.main(call.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[call]
