"""tools/output_digest.py hashes every output bit of a benchmark workload."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from majorana.cli import main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


@pytest.mark.parametrize("workload", ["roundtrip", "kings", "dynamics", "cli"])
def test_digest_is_repeatable_and_sees_one_bit(workload):
    chunks = list(output_digest.outputs(workload, seed=1, cycles=1))
    again = list(output_digest.outputs(workload, seed=1, cycles=1))
    assert again == chunks
    found = output_digest.digests(chunks)
    assert output_digest.digests(again) == found
    assert set(found) == {"all"} | {klass for klass, _ in chunks}
    # One bit of one output flipped moves the digest of its class and the
    # whole digest, and no other class's.
    i = next(i for i in range(len(chunks) // 2, len(chunks)) if chunks[i][1])
    klass, data = chunks[i]
    flipped = bytearray(data)
    flipped[-1] ^= 1
    moved = output_digest.digests(chunks[:i] + [(klass, bytes(flipped))] + chunks[i + 1 :])
    assert {key for key in found if moved[key] != found[key]} == {"all", klass}


def test_cli_digest_stands_for_the_commands_stdout(tmp_path):
    # The cli digest hashes the text each command is expected to print; the
    # command itself must print that text byte for byte.
    wl, mj = output_digest.load(output_digest.ROOT / "src")
    digested = dict(output_digest.cli_outputs(wl, mj, np.random.default_rng([1, 0]), 0))
    cli = wl.Cli(src=str(output_digest.ROOT / "src"), workdir=str(tmp_path))
    (item,) = cli.inputs(np.random.default_rng([1, 0]), 0)
    for name, argv, _ in cli.commands(item):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, (name, result.output)
        assert result.stdout.encode() == digested[name] + b"\n", name
