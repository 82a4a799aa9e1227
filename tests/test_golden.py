"""Golden outputs: every CLI kind at a tiny config, hashed byte for byte.

Each case runs ``cli.main`` at workers 1 and 2 and hashes the report body
(as JSON with sorted keys) and every CSV it writes.  The digests below were
taken from the code before any change that claims to keep outputs the same;
a change that means to move an output updates its digest and says which case
moved and why.  ``spectrum`` and ``gff-check`` go through LAPACK and BLAS,
whose last bits may differ between builds; their bytes are hashed all the
same, never rounded, and a failure prints the numpy and BLAS versions.
"""

import hashlib
import json

import numpy as np
import pytest

from regraph import cli

_NINE_POINTS = ", ".join(repr(i / 8) for i in range(9))
_193_POINTS = ", ".join(repr(i / 192) for i in range(193))

# case -> (kind, config text); both models wherever a kind has a model field.
# limit-sim runs two chunks of replicas on a three-point grid, and one chunk
# on a nine-point grid and on a 193-point grid, one point past those at which
# simulate_limit finds an atom's grid index by comparison.
CASES = {
    "sample-permutation": ("sample", "model = permutation\nn = 12\nd = 2\ncount = 3\n"),
    "sample-uniform": ("sample", "model = uniform\nn = 10\nd = 3\ncount = 3\n"),
    "cycles-permutation": ("cycles", "model = permutation\nn = 30\nd = 2\nr = 4\ncount = 3\n"),
    "cycles-uniform": ("cycles", "model = uniform\nn = 20\nd = 3\nr = 4\ncount = 3\n"),
    "spectrum-permutation": ("spectrum", "model = permutation\nn = 40\nd = 2\n"),
    "spectrum-uniform": ("spectrum", "model = uniform\nn = 40\nd = 3\nscale = half\n"),
    "poisson-test-permutation": ("poisson-test", "model = permutation\nd = 2\nr = 3\n"
                                                 "n_values = 20, 40\nsamples = 30\n"),
    "poisson-test-uniform": ("poisson-test", "model = uniform\nd = 3\nr = 3\n"
                                             "n_values = 10, 20\nsamples = 30\n"),
    "grow": ("grow", "d = 2\ns = 0.5\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nr = 3\nreplicas = 3\n"),
    "limit-sim": ("limit-sim", "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 0.5, 1.0\n"
                               "replicas = 1100\n"),
    "limit-sim-nine-points": ("limit-sim", f"d = 2\nK = 3\nT = 1.0\ngrid = {_NINE_POINTS}\n"
                                           "replicas = 40\n"),
    "limit-sim-193-points": ("limit-sim", f"d = 2\nK = 3\nT = 1.0\ngrid = {_193_POINTS}\n"
                                          "replicas = 4\n"),
    "gff-check": ("gff-check", "jmax = 2\nkmax = 3\nlags = 0.0, 0.5\n"),
}

GOLDEN = {
    'sample-permutation': {
        'body': '95c0892cf102a2439924ba758e7899f715d426dda463432a9b1cb2101b28e6e1',
    },
    'sample-uniform': {
        'body': '0fb5fde40f63aa358031ad7a65b971a59b4c990b7054b90b4ddbf3b726101a68',
    },
    'cycles-permutation': {
        'body': '17d20197106b58c733c88c54d4cc860e6aae9be9cbe2ff9a97719c68090d663e',
    },
    'cycles-uniform': {
        'body': '6c97cc40a84881b216c1d57ab904631c544835b7e1efc82596065234e4d62def',
    },
    'spectrum-permutation': {
        'body': '3239c34fd342cefc6fe467f05cef9b9964ae6a77d4a21eb7b0a9ebedec83209d',
        'spectrum.csv': 'cd09fb2054b3db538c5c534426f8687a73af149d600057b488b904b7a20d3e24',
    },
    'spectrum-uniform': {
        'body': 'd14886be83c8cc2615e5373580796ffad912c3fd50eceef76787a840dc7ac73e',
        'spectrum.csv': '4bae84eb0107b316e22fef55eb0a7023973ae2762ecb87355480ab67dbf8a06b',
    },
    'poisson-test-permutation': {
        'body': 'ec68ce6212efd96e997a84b3a30b8da31c3e83efda965e15703997ef6388cedb',
        'rows.csv': '9255235cae70557b301f5b6aeede5098a65cb461d1221cd6508da9e8618cd65b',
    },
    'poisson-test-uniform': {
        'body': '3e0df5a63c27e6a3aa12202f06483401cfac36aa4601c0117273be3371c31f74',
        'rows.csv': 'fdc207a22bd3e35f664868037945e9e38763bf302cd413be4368a8b016331f73',
    },
    'grow': {
        'body': 'b4b791d4aff79c7c0f5e9df90d8f938add69f3e638148b81f5212d37ff2faa1a',
        'events.csv': '3900c2fe24f4915bf66a3efbad8080c4627f1ff9f1af0f5705545f60a602c8ef',
        'trajectory.csv': '501bd6fd5ad0acaee80e2dd657c0cadf721ab888b41e3b3116354594ce682075',
    },
    'limit-sim': {
        'body': '3d6b2918217d6ebce08f2286fb18fab22637393b71976c94362361506d9e0ac2',
        'trajectory.csv': '2ae329ce53eb17c68635335d9869841a02af9efb72654f0683a1ca333d005252',
    },
    'limit-sim-nine-points': {
        'body': 'ccb41e59383790acea803e9c7bb4078adea13562728438e0e4eee4552b286198',
        'trajectory.csv': '80d8be7da13ad06a4b527bf12aefed73e8b6971548a5a63efafb896f70324153',
    },
    'limit-sim-193-points': {
        'body': 'ea8edf3f24cc48c10bbc59f9ecb157724a46885fbde3409e15ec2a29c9f412f5',
        'trajectory.csv': '6386338e3d42f222c386de143bc21e08f58aa0b1fe2f75aa935e7ab8eef9ab92',
    },
    'gff-check': {
        'body': '6c96a67346bcd5a295b4910dce29e9a5145e21e42b8b31772295cc77261cae7c',
        'pairs.csv': 'ec593b1d81a8bba553a44a0d4539cf0b1265b376d584672eacc475c625c5045a',
    },
}


def _digests(out) -> dict[str, str]:
    """sha256 of the report body and of each CSV in ``out``."""
    body = json.loads((out / "report.json").read_text())["body"]
    digests = {"body": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()}
    for path in sorted(out.glob("*.csv")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _versions() -> str:
    """numpy's version, and its BLAS where this numpy build reports it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # numpy < 1.25, or no BLAS entry
        return f"numpy {np.__version__}, BLAS unknown"


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_match_golden_digests(tmp_path, case):
    kind, text = CASES[case]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    seen = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        argv = [kind, "--config", str(cfg), "--out", str(out), "--seed", "31",
                "--workers", str(workers)]
        assert cli.main(argv) == 0
        seen.append(_digests(out))
    assert seen[0] == seen[1], f"{case}: outputs depend on the worker count"
    assert seen[0] == GOLDEN[case], f"{case} moved ({_versions()})"
