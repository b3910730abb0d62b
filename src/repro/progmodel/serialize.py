"""Wire serialization of programs.

Fix distribution ships whole program versions to pods (paper Fig. 1:
"fixes" flow from the hive to the pods). This module gives the IR a
compact, self-describing binary encoding so updates can cross the
simulated network as bytes, exactly like traces do — and so a real
deployment could persist or diff program versions.

The format is a tagged pre-order walk of the IR with varint integers
and length-prefixed UTF-8 strings; it round-trips every construct the
IR supports and validates the result on decode.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ProgramModelError, TraceError
from repro.progmodel.ir import (
    Assert,
    Assign,
    BinOp,
    Block,
    Branch,
    Call,
    Const,
    Crash,
    Expr,
    Function,
    Halt,
    Input,
    Instruction,
    Jump,
    LoadGlobal,
    Lock,
    Program,
    Return,
    StoreGlobal,
    Syscall,
    Terminator,
    UnOp,
    Unlock,
    Var,
)

__all__ = ["encode_program", "decode_program", "program_wire_size"]

_FORMAT_VERSION = 1

# Node tags.
_EXPR_CONST, _EXPR_VAR, _EXPR_INPUT, _EXPR_BIN, _EXPR_UN = range(5)
(_I_ASSIGN, _I_STORE, _I_LOAD, _I_LOCK, _I_UNLOCK, _I_SYSCALL, _I_ASSERT,
 _I_CRASH, _I_CALL) = range(9)
_T_BRANCH, _T_JUMP, _T_RETURN, _T_HALT = range(4)


class _Writer:
    def __init__(self):
        self.out = bytearray()

    def varint(self, value: int) -> None:
        if value < 0:
            raise ProgramModelError(f"varint cannot encode {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self.out.append(byte | 0x80)
            else:
                self.out.append(byte)
                return

    def zigzag(self, value: int) -> None:
        self.varint(value * 2 if value >= 0 else -value * 2 - 1)

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.varint(len(data))
        self.out.extend(data)


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            if self._pos >= len(self._data):
                raise TraceError("truncated program encoding (varint)")
            byte = self._data[self._pos]
            self._pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def zigzag(self) -> int:
        raw = self.varint()
        return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2

    def string(self) -> str:
        length = self.varint()
        if self._pos + length > len(self._data):
            raise TraceError("truncated program encoding (string)")
        text = self._data[self._pos:self._pos + length].decode("utf-8")
        self._pos += length
        return text

    def done(self) -> bool:
        return self._pos == len(self._data)


# -- expressions ---------------------------------------------------------------

_BINOPS = ("+", "-", "*", "//", "%", "==", "!=", "<", "<=", ">", ">=",
           "and", "or", "min", "max")
_UNOPS = ("neg", "not")


def _write_expr(w: _Writer, expr: Expr) -> None:
    if isinstance(expr, Const):
        w.varint(_EXPR_CONST)
        w.zigzag(expr.value)
    elif isinstance(expr, Var):
        w.varint(_EXPR_VAR)
        w.string(expr.name)
    elif isinstance(expr, Input):
        w.varint(_EXPR_INPUT)
        w.string(expr.name)
    elif isinstance(expr, BinOp):
        w.varint(_EXPR_BIN)
        w.varint(_BINOPS.index(expr.op))
        _write_expr(w, expr.left)
        _write_expr(w, expr.right)
    elif isinstance(expr, UnOp):
        w.varint(_EXPR_UN)
        w.varint(_UNOPS.index(expr.op))
        _write_expr(w, expr.operand)
    else:
        raise ProgramModelError(f"cannot serialize expression {expr!r}")


def _read_expr(r: _Reader) -> Expr:
    tag = r.varint()
    if tag == _EXPR_CONST:
        return Const(r.zigzag())
    if tag == _EXPR_VAR:
        return Var(r.string())
    if tag == _EXPR_INPUT:
        return Input(r.string())
    if tag == _EXPR_BIN:
        op = _BINOPS[r.varint()]
        left = _read_expr(r)
        right = _read_expr(r)
        return BinOp(op, left, right)
    if tag == _EXPR_UN:
        op = _UNOPS[r.varint()]
        return UnOp(op, _read_expr(r))
    raise TraceError(f"bad expression tag {tag}")


# -- instructions ---------------------------------------------------------------

def _write_instruction(w: _Writer, instr: Instruction) -> None:
    if isinstance(instr, Assign):
        w.varint(_I_ASSIGN)
        w.string(instr.dst)
        _write_expr(w, instr.expr)
    elif isinstance(instr, StoreGlobal):
        w.varint(_I_STORE)
        w.string(instr.name)
        _write_expr(w, instr.expr)
    elif isinstance(instr, LoadGlobal):
        w.varint(_I_LOAD)
        w.string(instr.dst)
        w.string(instr.name)
    elif isinstance(instr, Lock):
        w.varint(_I_LOCK)
        w.string(instr.lock_name)
    elif isinstance(instr, Unlock):
        w.varint(_I_UNLOCK)
        w.string(instr.lock_name)
    elif isinstance(instr, Syscall):
        w.varint(_I_SYSCALL)
        w.string(instr.dst)
        w.string(instr.name)
        w.varint(len(instr.args))
        for arg in instr.args:
            _write_expr(w, arg)
    elif isinstance(instr, Assert):
        w.varint(_I_ASSERT)
        _write_expr(w, instr.cond)
        w.string(instr.message)
    elif isinstance(instr, Crash):
        w.varint(_I_CRASH)
        w.string(instr.message)
    elif isinstance(instr, Call):
        w.varint(_I_CALL)
        w.string(instr.dst or "")
        w.string(instr.callee)
        w.varint(len(instr.args))
        for arg in instr.args:
            _write_expr(w, arg)
    else:
        raise ProgramModelError(f"cannot serialize instruction {instr!r}")


def _read_instruction(r: _Reader) -> Instruction:
    tag = r.varint()
    if tag == _I_ASSIGN:
        return Assign(r.string(), _read_expr(r))
    if tag == _I_STORE:
        return StoreGlobal(r.string(), _read_expr(r))
    if tag == _I_LOAD:
        return LoadGlobal(r.string(), r.string())
    if tag == _I_LOCK:
        return Lock(r.string())
    if tag == _I_UNLOCK:
        return Unlock(r.string())
    if tag == _I_SYSCALL:
        dst = r.string()
        name = r.string()
        args = tuple(_read_expr(r) for _ in range(r.varint()))
        return Syscall(dst, name, args)
    if tag == _I_ASSERT:
        return Assert(_read_expr(r), r.string())
    if tag == _I_CRASH:
        return Crash(r.string())
    if tag == _I_CALL:
        dst = r.string() or None
        callee = r.string()
        args = tuple(_read_expr(r) for _ in range(r.varint()))
        return Call(dst, callee, args)
    raise TraceError(f"bad instruction tag {tag}")


def _write_terminator(w: _Writer, term: Terminator) -> None:
    if isinstance(term, Branch):
        w.varint(_T_BRANCH)
        _write_expr(w, term.cond)
        w.string(term.then_block)
        w.string(term.else_block)
    elif isinstance(term, Jump):
        w.varint(_T_JUMP)
        w.string(term.target)
    elif isinstance(term, Return):
        w.varint(_T_RETURN)
        _write_expr(w, term.value)
    elif isinstance(term, Halt):
        w.varint(_T_HALT)
    else:
        raise ProgramModelError(f"cannot serialize terminator {term!r}")


def _read_terminator(r: _Reader) -> Terminator:
    tag = r.varint()
    if tag == _T_BRANCH:
        return Branch(_read_expr(r), r.string(), r.string())
    if tag == _T_JUMP:
        return Jump(r.string())
    if tag == _T_RETURN:
        return Return(_read_expr(r))
    if tag == _T_HALT:
        return Halt()
    raise TraceError(f"bad terminator tag {tag}")


# -- programs ---------------------------------------------------------------------

def encode_program(program: Program) -> bytes:
    """Serialize a program (including its version stamp)."""
    w = _Writer()
    w.varint(_FORMAT_VERSION)
    w.string(program.name)
    w.varint(program.version)
    w.varint(len(program.threads))
    for thread in program.threads:
        w.string(thread)
    w.varint(len(program.inputs))
    for name in sorted(program.inputs):
        lo, hi = program.inputs[name]
        w.string(name)
        w.zigzag(lo)
        w.zigzag(hi)
    w.varint(len(program.globals))
    for name in sorted(program.globals):
        w.string(name)
        w.zigzag(program.globals[name])
    w.varint(len(program.functions))
    for fname in sorted(program.functions):
        func = program.functions[fname]
        w.string(func.name)
        w.varint(len(func.params))
        for param in func.params:
            w.string(param)
        w.string(func.entry)
        w.varint(len(func.blocks))
        for label in sorted(func.blocks):
            block = func.blocks[label]
            w.string(block.label)
            w.varint(len(block.instructions))
            for instr in block.instructions:
                _write_instruction(w, instr)
            if block.terminator is None:
                raise ProgramModelError(
                    f"block {label!r} has no terminator")
            _write_terminator(w, block.terminator)
    return bytes(w.out)


def decode_program(data: bytes) -> Program:
    """Inverse of :func:`encode_program`; validates the result.

    Total over bytes: any input yields a program or raises
    :class:`~repro.errors.TraceError`, whatever part of the decoder or
    of IR validation the mangled bytes upset.
    """
    try:
        return _decode_program(data)
    except (ProgramModelError, ValueError, IndexError, KeyError,
            OverflowError, RecursionError) as error:
        raise TraceError(f"malformed program bytes: {error}")


def _decode_program(data: bytes) -> Program:
    r = _Reader(data)
    version = r.varint()
    if version != _FORMAT_VERSION:
        raise TraceError(f"unsupported program format version {version}")
    name = r.string()
    program_version = r.varint()
    threads = tuple(r.string() for _ in range(r.varint()))
    inputs: Dict[str, Tuple[int, int]] = {}
    for _ in range(r.varint()):
        input_name = r.string()
        inputs[input_name] = (r.zigzag(), r.zigzag())
    global_vars: Dict[str, int] = {}
    for _ in range(r.varint()):
        global_name = r.string()
        global_vars[global_name] = r.zigzag()
    functions: Dict[str, Function] = {}
    for _ in range(r.varint()):
        fname = r.string()
        params = tuple(r.string() for _ in range(r.varint()))
        entry = r.string()
        blocks: Dict[str, Block] = {}
        for _b in range(r.varint()):
            label = r.string()
            instructions: List[Instruction] = [
                _read_instruction(r) for _ in range(r.varint())]
            terminator = _read_terminator(r)
            blocks[label] = Block(label=label, instructions=instructions,
                                  terminator=terminator)
        functions[fname] = Function(name=fname, params=params,
                                    blocks=blocks, entry=entry)
    if not r.done():
        raise TraceError("trailing bytes after program")
    program = Program(name=name, functions=functions, threads=threads,
                      inputs=inputs, globals=global_vars,
                      version=program_version)
    program.validate()
    return program


def program_wire_size(program: Program) -> int:
    """Update-payload size in bytes."""
    return len(encode_program(program))
