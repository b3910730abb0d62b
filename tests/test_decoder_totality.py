"""Wire decoders are total: any bytes yield a value or ``TraceError``.

Each decoder is fed deterministic mutants of live encodings — a single
byte replaced at every position, every truncation, a continuation byte
inserted at every position, and a seeded batch of multi-byte
corruptions. The session's pipe unpackers take packed tuples instead
of bytes; they are fed every variant of a live packed round with one
node swapped for a wrong-typed stand-in, or one row cut short or grown.
Every mutant must decode or raise the module's one typed error;
nothing else may escape.
"""

import random
import struct
import zlib

import pytest

from repro.errors import TraceError
from repro.exec.batch import decode_batch, encode_batch
from repro.exec.session import (
    pack_result, pack_runs, unpack_result, unpack_runs,
)
from repro.progmodel.bugs import BugKind
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo,
)
from repro.progmodel.interpreter import Outcome
from repro.progmodel.ir import Const
from repro.progmodel.serialize import decode_program, encode_program
from repro.tracing.encode import decode_trace, encode_trace
from repro.tree.encode import decode_tree, encode_tree
from repro.tree.exectree import ExecutionTree

#: Replacement bytes tried at every position: low-bit flip, top-bit
#: flip (varint continuation), complement, zero, max single-byte
#: varint.
_REPLACEMENTS = (lambda b: b ^ 0x01, lambda b: b ^ 0x80,
                 lambda b: b ^ 0xFF, lambda b: 0x00, lambda b: 0x7F)


def mutants(data: bytes, seed: int = 0, random_mutants: int = 200):
    for index, byte in enumerate(data):
        for replace in _REPLACEMENTS:
            value = replace(byte)
            if value != byte:
                yield data[:index] + bytes([value]) + data[index + 1:]
        yield data[:index]
        yield data[:index] + b"\x80" + data[index:]
    rng = random.Random(seed)
    for _ in range(random_mutants):
        mutant = bytearray(data)
        for _ in range(rng.randint(2, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


#: Stand-ins tried for every node of a packed tuple: wrong types, a
#: negative and an oversized index, empty containers.
_SUBSTITUTES = (None, -1, 1 << 70, "x", b"\x00", (), [], {})


def packed_mutants(value):
    """Every variant of a packed value with one node replaced, or one
    tuple or list cut short or grown by a repeat of its last item."""
    for substitute in _SUBSTITUTES:
        if type(substitute) is not type(value) or substitute != value:
            yield substitute
    if isinstance(value, (tuple, list)):
        rebuild = type(value)
        for index, item in enumerate(value):
            for mutant in packed_mutants(item):
                yield value[:index] + rebuild([mutant]) + value[index + 1:]
        if value:
            yield value[:-1]
            yield value + rebuild([value[-1]])
    elif isinstance(value, dict):
        for key, item in value.items():
            for mutant in packed_mutants(item):
                yield {**value, key: mutant}


def assert_total(decode, data, mutate=mutants) -> int:
    """Decode every mutant of ``data``; returns how many decoded."""
    decoded = 0
    for mutant in mutate(data):
        try:
            decode(mutant)
        except TraceError:
            continue
        decoded += 1
    return decoded


class TestDecodersAreTotal:
    @pytest.mark.parametrize("program", [
        make_crash_demo().program,
        generate_program("totality", CorpusConfig(seed=4, n_segments=3),
                         (BugKind.CRASH,)).program,
    ], ids=["crash-demo", "corpus"])
    def test_decode_program(self, program):
        data = encode_program(program)
        assert decode_program(data).name == program.name
        assert_total(decode_program, data)

    def test_deeply_nested_expression_is_a_trace_error(self):
        # 5,000 nested negations: more frames than the recursive
        # expression reader may take.
        builder = ProgramBuilder("deep")
        builder.function("main").block("entry").assign(
            "marker", Const(0)).halt()
        data = encode_program(builder.build())
        at = data.index(b"\x06marker") + len(b"\x06marker")
        assert data[at:at + 2] == b"\x00\x00"      # Const(0)
        with pytest.raises(TraceError):
            decode_program(data[:at] + b"\x04\x00" * 5000 + data[at:])

    def test_decode_tree(self, hive_tree):
        assert hive_tree.path_count > 1
        data = encode_tree(hive_tree)
        assert (decode_tree(data).canonical_paths()
                == hive_tree.canonical_paths())
        assert_total(decode_tree, data)

    def test_decode_trace(self, crash_demo_trace):
        assert_total(decode_trace, encode_trace(crash_demo_trace))

    def test_decode_batch(self, live_frame):
        # Mutate the body and recompute the CRC32 footer: with a stale
        # footer the checksum would reject every mutant before the body
        # is read. Receivers decode over a memoryview, so do the same.
        body = encode_batch(live_frame)[:-4]

        def decode_rechecksummed(mutant: bytes):
            frame = mutant + struct.pack(">I", zlib.crc32(mutant))
            return decode_batch(memoryview(frame))

        assert decode_rechecksummed(body).entries
        assert_total(decode_rechecksummed, body)

    def test_unpack_runs(self, live_round):
        runs, _result = live_round
        packed = pack_runs(runs)
        assert unpack_runs(packed) == list(runs)
        assert assert_total(unpack_runs, packed, packed_mutants)

    def test_unpack_result(self, live_round):
        _runs, result = live_round
        packed = pack_result(result)
        assert result.records and result.entries
        assert any(entry.heartbeat for entry in result.entries)
        assert unpack_result(packed).records == result.records
        assert assert_total(unpack_result, packed, packed_mutants)

    def test_huge_tree_count_costs_one_walk(self):
        # A mangled count varint can claim hundreds of millions of
        # executions; the decoder folds it into one counted insert
        # instead of walking the path that many times.
        tree = ExecutionTree("p", 1)
        tree.insert_path([((0, "main", "entry"), True)], Outcome.OK,
                         count=3)
        data = encode_tree(tree)
        assert data[-1] == 3                  # the count is the last byte
        huge = data[:-1] + b"\xff\xff\xff\x7f"
        assert decode_tree(huge).insert_count == (1 << 28) - 1
