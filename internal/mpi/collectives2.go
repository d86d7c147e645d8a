package mpi

import (
	"dvc/internal/guest"
	"dvc/internal/imgcodec"
)

func init() {
	imgcodec.Register(&Gather{})
	imgcodec.Register(&Scatter{})
	imgcodec.Register(&Allgather{})
}

// Collective tags for the second collective family.
const (
	tagGather  = 1<<20 + 4
	tagScatter = 1<<20 + 5
	tagAllgath = 1<<20 + 6
)

// Gather collects one block from every rank at Root (flat). On completion
// the root's Blocks[i] holds rank i's contribution.
type Gather struct {
	Root int
	Mine []byte

	Blocks [][]byte // populated at the root
	PC     int
	Sub    Op
}

// NewGather constructs a gather of each rank's Mine block at root.
func NewGather(root int, mine []byte) *Gather { return &Gather{Root: root, Mine: mine} }

func (op *Gather) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			if r, ok := op.Sub.(*RecvMsg); ok {
				op.Blocks[r.From] = r.Data
			}
			op.Sub = nil
			res = guest.Result{}
		}
		if rt.Me == op.Root {
			if op.Blocks == nil {
				op.Blocks = make([][]byte, rt.Size)
				op.Blocks[rt.Me] = op.Mine
			}
			next := op.PC
			if next == op.Root {
				next++
			}
			if next >= rt.Size {
				return nil, true
			}
			op.PC = next + 1
			op.Sub = Recv(next, tagGather)
		} else {
			if op.PC == 1 {
				return nil, true
			}
			op.PC = 1
			op.Sub = Send(op.Root, tagGather, op.Mine)
		}
	}
}

// Scatter distributes Root's Blocks, one per rank (flat). On completion
// every rank's Mine holds its block.
type Scatter struct {
	Root   int
	Blocks [][]byte // only the root provides these

	Mine []byte
	PC   int
	Sub  Op
}

// NewScatter constructs a scatter of the root's blocks.
func NewScatter(root int, blocks [][]byte) *Scatter { return &Scatter{Root: root, Blocks: blocks} }

func (op *Scatter) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			if r, ok := op.Sub.(*RecvMsg); ok {
				op.Mine = r.Data
			}
			op.Sub = nil
			res = guest.Result{}
		}
		if rt.Me == op.Root {
			if op.Mine == nil && op.Blocks != nil {
				op.Mine = op.Blocks[rt.Me]
			}
			next := op.PC
			if next == op.Root {
				next++
			}
			if next >= rt.Size {
				return nil, true
			}
			op.PC = next + 1
			op.Sub = Send(next, tagScatter, op.Blocks[next])
		} else {
			if op.PC == 1 {
				return nil, true
			}
			op.PC = 1
			op.Sub = Recv(op.Root, tagScatter)
		}
	}
}

// Allgather gives every rank every rank's block: gather at 0, then a
// broadcast of the concatenation (with a simple length-prefixed frame).
type Allgather struct {
	Mine []byte

	Blocks [][]byte
	PC     int
	Sub    Op
}

// NewAllgather constructs an allgather of each rank's Mine block.
func NewAllgather(mine []byte) *Allgather { return &Allgather{Mine: mine} }

func (op *Allgather) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			switch s := op.Sub.(type) {
			case *Gather:
				op.Blocks = s.Blocks
			case *Bcast:
				if op.Blocks == nil { // non-roots decode the frame
					op.Blocks = decodeFrames(s.Data)
				}
			}
			op.Sub = nil
			res = guest.Result{}
		}
		switch op.PC {
		case 0:
			op.PC = 1
			op.Sub = NewGather(0, op.Mine)
		case 1:
			op.PC = 2
			var frame []byte
			if rt.Me == 0 {
				frame = encodeFrames(op.Blocks)
			}
			op.Sub = NewBcast(0, frame)
		default:
			return nil, true
		}
	}
}

// encodeFrames concatenates blocks with 4-byte little-endian length
// prefixes.
func encodeFrames(blocks [][]byte) []byte {
	var out []byte
	for _, b := range blocks {
		n := len(b)
		out = append(out, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		out = append(out, b...)
	}
	return out
}

// decodeFrames reverses encodeFrames.
func decodeFrames(frame []byte) [][]byte {
	var out [][]byte
	for len(frame) >= 4 {
		n := int(frame[0]) | int(frame[1])<<8 | int(frame[2])<<16 | int(frame[3])<<24
		frame = frame[4:]
		if n > len(frame) {
			break
		}
		out = append(out, frame[:n:n])
		frame = frame[n:]
	}
	return out
}
