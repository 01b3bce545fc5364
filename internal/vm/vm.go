// Package vm implements MiniVM, the reproduction's smart-contract execution
// engine. The paper's prototype runs Solidity contracts on the EVM with an
// instrumented read/write logger (§V); building the EVM is out of scope for
// a stdlib-only reproduction, so MiniVM substitutes a gas-metered,
// stack-based bytecode machine that exercises the same code path: contracts
// compiled to bytecode, speculative execution against a state snapshot, and
// a logger capturing the addresses and values each transaction reads and
// writes (the input to concurrency control).
//
// Substitutions vs the EVM (documented in DESIGN.md): 64-bit words instead
// of 256-bit, a reduced opcode set, and immediate jump targets. None of
// these affect what the paper measures — conflict structure is determined
// by storage access patterns, which MiniVM reproduces exactly.
//
// Storage addressing follows Solidity's mapping discipline: SLOAD/SSTORE
// take a (table, key) word pair, hashed together with the contract address
// into the global state key (types.StorageKey).
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/nezha-dag/nezha/internal/types"
)

// Opcodes. The numbering loosely follows the EVM where an analogue exists.
const (
	OpStop         byte = 0x00
	OpAdd          byte = 0x01
	OpSub          byte = 0x02
	OpMul          byte = 0x03
	OpDiv          byte = 0x04
	OpMod          byte = 0x05
	OpLt           byte = 0x10
	OpGt           byte = 0x11
	OpEq           byte = 0x12
	OpIsZero       byte = 0x13
	OpAnd          byte = 0x16
	OpOr           byte = 0x17
	OpXor          byte = 0x18
	OpNot          byte = 0x19
	OpCalldataByte byte = 0x35 // 1-byte immediate offset → byte
	OpCalldataWord byte = 0x36 // 1-byte immediate offset → big-endian u64
	OpCalldataSize byte = 0x37
	OpPop          byte = 0x50
	OpSload        byte = 0x54 // pops key, table → pushes value
	OpSstore       byte = 0x55 // pops value, key, table
	OpJump         byte = 0x56 // 2-byte immediate target
	OpJumpI        byte = 0x57 // 2-byte immediate target; pops condition
	OpPush         byte = 0x60 // 8-byte immediate
	OpDup1         byte = 0x80
	OpDup2         byte = 0x81
	OpDup3         byte = 0x82
	OpDup4         byte = 0x83
	OpSwap1        byte = 0x90
	OpSwap2        byte = 0x91
	OpReturn       byte = 0xf3 // pops 1 word, returned big-endian
	OpRevert       byte = 0xfd
)

// Execution errors. ErrRevert and ErrOutOfGas are "transaction failed"
// conditions (the transaction aborts with AbortExecution); the others
// indicate malformed bytecode.
var (
	ErrOutOfGas       = errors.New("vm: out of gas")
	ErrRevert         = errors.New("vm: execution reverted")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadJump        = errors.New("vm: jump target out of range")
	ErrBadOpcode      = errors.New("vm: unknown opcode")
	ErrTruncated      = errors.New("vm: truncated immediate")
)

// Gas costs. Storage operations dominate, as on the EVM.
const (
	gasBase   = 1
	gasJump   = 2
	gasSload  = 20
	gasSstore = 50
)

const maxStack = 256

// StateReader is the interface execution reads state through: an epoch's
// mvcc.View, the statedb head, or a MapReader all satisfy it.
type StateReader interface {
	Get(k types.Key) ([]byte, error)
}

// Context carries the per-call environment.
type Context struct {
	// Contract is the address whose storage SLOAD/SSTORE touch.
	Contract types.Address
	// Caller is the transaction sender (informational).
	Caller types.Address
	// Payload is the calldata.
	Payload []byte
	// GasLimit bounds execution.
	GasLimit uint64
}

// Result is the outcome of one execution: the deduplicated, key-sorted read
// and write sets (reads carry snapshot values; a read served by the
// transaction's own earlier write is not recorded — it is not a conflict),
// gas consumed, and the return word if any.
type Result struct {
	Reads      []types.ReadEntry
	Writes     []types.WriteEntry
	GasUsed    uint64
	ReturnWord uint64
	Returned   bool
}

// Execute runs the program to completion. An error return of ErrRevert or
// ErrOutOfGas still carries a valid GasUsed in the result.
func Execute(program []byte, ctx Context, state StateReader) (*Result, error) {
	ex := &execution{
		program: program,
		ctx:     ctx,
		state:   state,
		gas:     ctx.GasLimit,
		written: make(map[types.Key][]byte),
		readVal: make(map[types.Key][]byte),
	}
	err := ex.run()
	res := &Result{
		GasUsed:    ctx.GasLimit - ex.gas,
		ReturnWord: ex.returnWord,
		Returned:   ex.returned,
	}
	// Deduplicated, key-sorted sets for deterministic downstream use.
	for k, v := range ex.readVal {
		res.Reads = append(res.Reads, types.ReadEntry{Key: k, Value: v})
	}
	sort.Slice(res.Reads, func(i, j int) bool { return res.Reads[i].Key.Less(res.Reads[j].Key) })
	for k, v := range ex.written {
		res.Writes = append(res.Writes, types.WriteEntry{Key: k, Value: v})
	}
	sort.Slice(res.Writes, func(i, j int) bool { return res.Writes[i].Key.Less(res.Writes[j].Key) })
	return res, err
}

type execution struct {
	program []byte
	ctx     Context
	state   StateReader
	gas     uint64

	pc    int
	stack []uint64

	// written is the transaction-local write buffer (read-your-writes);
	// readVal records first-read snapshot values per key.
	written map[types.Key][]byte
	readVal map[types.Key][]byte

	returnWord uint64
	returned   bool
}

func (ex *execution) charge(cost uint64) error {
	if ex.gas < cost {
		ex.gas = 0
		return ErrOutOfGas
	}
	ex.gas -= cost
	return nil
}

func (ex *execution) push(v uint64) error {
	if len(ex.stack) >= maxStack {
		return ErrStackOverflow
	}
	ex.stack = append(ex.stack, v)
	return nil
}

func (ex *execution) pop() (uint64, error) {
	if len(ex.stack) == 0 {
		return 0, ErrStackUnderflow
	}
	v := ex.stack[len(ex.stack)-1]
	ex.stack = ex.stack[:len(ex.stack)-1]
	return v, nil
}

// storageKey maps a (table, key) pair onto the global state key.
func (ex *execution) storageKey(table, key uint64) types.Key {
	var slotPre [16]byte
	binary.BigEndian.PutUint64(slotPre[:8], table)
	binary.BigEndian.PutUint64(slotPre[8:], key)
	slot := types.HashBytes(slotPre[:])
	return types.StorageKey(ex.ctx.Contract, slot)
}

func (ex *execution) imm(n int) ([]byte, error) {
	if ex.pc+n > len(ex.program) {
		return nil, ErrTruncated
	}
	b := ex.program[ex.pc : ex.pc+n]
	ex.pc += n
	return b, nil
}

func (ex *execution) run() error {
	for ex.pc < len(ex.program) {
		op := ex.program[ex.pc]
		ex.pc++
		if err := ex.step(op); err != nil {
			return err
		}
		if ex.returned {
			return nil
		}
	}
	return nil // falling off the end is an implicit STOP
}

func (ex *execution) step(op byte) error {
	switch op {
	case OpStop:
		ex.returned = true
		return nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpGt, OpEq, OpAnd, OpOr, OpXor:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		right, err := ex.pop()
		if err != nil {
			return err
		}
		left, err := ex.pop()
		if err != nil {
			return err
		}
		return ex.push(binop(op, left, right))
	case OpIsZero, OpNot:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		if op == OpIsZero {
			return ex.push(boolWord(v == 0))
		}
		return ex.push(^v)
	case OpCalldataByte:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i < len(ex.ctx.Payload) {
			v = uint64(ex.ctx.Payload[i])
		}
		return ex.push(v)
	case OpCalldataWord:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		off, err := ex.imm(1)
		if err != nil {
			return err
		}
		i := int(off[0])
		var v uint64
		if i+8 <= len(ex.ctx.Payload) {
			v = binary.BigEndian.Uint64(ex.ctx.Payload[i : i+8])
		}
		return ex.push(v)
	case OpCalldataSize:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		return ex.push(uint64(len(ex.ctx.Payload)))
	case OpPop:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		_, err := ex.pop()
		return err
	case OpSload:
		if err := ex.charge(gasSload); err != nil {
			return err
		}
		key, err := ex.pop()
		if err != nil {
			return err
		}
		table, err := ex.pop()
		if err != nil {
			return err
		}
		sk := ex.storageKey(table, key)
		raw, err := ex.load(sk)
		if err != nil {
			return err
		}
		var v uint64
		if len(raw) == 8 {
			v = binary.BigEndian.Uint64(raw)
		}
		return ex.push(v)
	case OpSstore:
		if err := ex.charge(gasSstore); err != nil {
			return err
		}
		value, err := ex.pop()
		if err != nil {
			return err
		}
		key, err := ex.pop()
		if err != nil {
			return err
		}
		table, err := ex.pop()
		if err != nil {
			return err
		}
		sk := ex.storageKey(table, key)
		ex.written[sk] = binary.BigEndian.AppendUint64(nil, value)
		return nil
	case OpJump:
		if err := ex.charge(gasJump); err != nil {
			return err
		}
		tgt, err := ex.imm(2)
		if err != nil {
			return err
		}
		return ex.jump(int(binary.BigEndian.Uint16(tgt)))
	case OpJumpI:
		if err := ex.charge(gasJump); err != nil {
			return err
		}
		tgt, err := ex.imm(2)
		if err != nil {
			return err
		}
		cond, err := ex.pop()
		if err != nil {
			return err
		}
		if cond != 0 {
			return ex.jump(int(binary.BigEndian.Uint16(tgt)))
		}
		return nil
	case OpPush:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		w, err := ex.imm(8)
		if err != nil {
			return err
		}
		return ex.push(binary.BigEndian.Uint64(w))
	case OpDup1, OpDup2, OpDup3, OpDup4:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		depth := int(op-OpDup1) + 1
		if len(ex.stack) < depth {
			return ErrStackUnderflow
		}
		return ex.push(ex.stack[len(ex.stack)-depth])
	case OpSwap1, OpSwap2:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		depth := int(op-OpSwap1) + 1
		if len(ex.stack) < depth+1 {
			return ErrStackUnderflow
		}
		top := len(ex.stack) - 1
		ex.stack[top], ex.stack[top-depth] = ex.stack[top-depth], ex.stack[top]
		return nil
	case OpReturn:
		if err := ex.charge(gasBase); err != nil {
			return err
		}
		v, err := ex.pop()
		if err != nil {
			return err
		}
		ex.returnWord = v
		ex.returned = true
		return nil
	case OpRevert:
		return ErrRevert
	default:
		return fmt.Errorf("%w: 0x%02x at pc %d", ErrBadOpcode, op, ex.pc-1)
	}
}

// load reads a key through the write buffer, recording a snapshot read only
// when the buffer misses.
func (ex *execution) load(k types.Key) ([]byte, error) {
	if v, ok := ex.written[k]; ok {
		return v, nil
	}
	if v, ok := ex.readVal[k]; ok {
		return v, nil
	}
	v, err := ex.state.Get(k)
	if err != nil {
		return nil, fmt.Errorf("vm: state read: %w", err)
	}
	ex.readVal[k] = v
	return v, nil
}

func (ex *execution) jump(target int) error {
	if target < 0 || target > len(ex.program) {
		return ErrBadJump
	}
	ex.pc = target
	return nil
}

func binop(op byte, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case OpLt:
		return boolWord(a < b)
	case OpGt:
		return boolWord(a > b)
	case OpEq:
		return boolWord(a == b)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	default:
		panic("vm: binop on non-binary opcode")
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MapReader adapts a plain map to StateReader for tests and benchmarks.
type MapReader map[types.Key][]byte

// Get implements StateReader.
func (m MapReader) Get(k types.Key) ([]byte, error) { return m[k], nil }
