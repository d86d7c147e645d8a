package mpi

import (
	"encoding/binary"
	"math"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&ComputeOp{})
	imgcodec.Register(&SendMsg{})
	imgcodec.Register(&RecvMsg{})
	imgcodec.Register(&Barrier{})
	imgcodec.Register(&Bcast{})
	imgcodec.Register(&Reduce{})
	imgcodec.Register(&Allreduce{})
	imgcodec.Register(&Alltoall{})
}

// Message framing: an 16-byte header (tag, length) followed by the body.
const headerSize = 16

func encodeHeader(tag int, n int) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(h[0:8], uint64(tag))
	binary.LittleEndian.PutUint64(h[8:16], uint64(n))
	return h
}

// headerTableSize bounds a rank's interned headers. A halo rank sends
// two (tag, length) pairs and a barrier one; a rank that cycles through
// more (HPL's per-column tags) fills the table and frames the rest with
// fresh headers.
const headerTableSize = 8

// headerTable interns a rank's message headers by (tag, length). A header
// is a chunk of every message framed with it, and TCP's send queue keeps
// that chunk until the message is acked (the payload immutability
// contract), so an entry is written once and never rewritten or evicted:
// every message with the same (tag, length) shares one immutable buffer.
type headerTable struct {
	n       int
	entries [headerTableSize]headerEntry
}

type headerEntry struct {
	tag, len int
	h        []byte
}

// header returns the header for a message of n bytes tagged tag: the
// interned one, or a fresh one once the table is full.
//
//dvc:hotpath
func (t *headerTable) header(tag, n int) []byte {
	for i := range t.entries[:t.n] {
		if e := &t.entries[i]; e.tag == tag && e.len == n {
			return e.h
		}
	}
	h := encodeHeader(tag, n)
	if t.n < headerTableSize {
		t.entries[t.n] = headerEntry{tag: tag, len: n, h: h}
		t.n++
	}
	return h
}

func decodeHeader(h []byte) (tag, n int) {
	return int(binary.LittleEndian.Uint64(h[0:8])), int(binary.LittleEndian.Uint64(h[8:16]))
}

// Float64sToBytes encodes a float64 vector for transmission.
func Float64sToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// BytesToFloat64s reverses Float64sToBytes.
func BytesToFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// ComputeOp models local computation for a duration. Applications get
// one from Ctx.Compute.
type ComputeOp struct {
	Duration sim.Time
	PC       int
}

func (op *ComputeOp) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	if op.PC == 0 {
		op.PC = 1
		return api.Compute(op.Duration), false
	}
	return nil, true
}

// SendMsg sends a tagged message to a peer rank. Applications get one
// from Ctx.Send.
type SendMsg struct {
	To   int
	Tag  int
	Data []byte
	PC   int
}

// send constructs a tagged send on the heap, for a collective's sub-op:
// a collective holds its sub-op while the application's own ops come
// and go, so it cannot use the rank's slot.
func send(to, tag int, data []byte) *SendMsg { return &SendMsg{To: to, Tag: tag, Data: data} }

func (op *SendMsg) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	if op.PC > 0 && res.Err != nil {
		rt.Fail("send to %d: %v", op.To, res.Err)
		return nil, true
	}
	switch op.PC {
	case 0:
		op.PC = 1
		// Zero-copy framing: the wire message is a rope of [header,
		// body] where the body chunk IS the application's buffer —
		// no header+data frame is materialised. The application gave
		// up mutation rights when it handed Data to Send (payload
		// immutability contract); every byte it produced crosses
		// mpi -> guest -> tcp -> netsim by reference.
		// The header is interned per rank (headerTable), so framing
		// allocates nothing either.
		frame := payload.FromChunks(rankSlots(api).headers.header(op.Tag, len(op.Data)), op.Data)
		op.Data = nil
		return api.SendPayload(rt.FDs[op.To], frame), false
	default:
		return nil, true
	}
}

// RecvMsg receives one tagged message from a peer rank. On completion
// Data holds the payload. Messages from one peer arrive in program
// order; a tag mismatch indicates a protocol bug and fails the rank.
// Applications get one from Ctx.Recv.
type RecvMsg struct {
	From int
	Tag  int
	Data []byte
	PC   int
}

// recv constructs a tagged receive on the heap, for a collective's
// sub-op (see send).
func recv(from, tag int) *RecvMsg { return &RecvMsg{From: from, Tag: tag} }

func (op *RecvMsg) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	if op.PC > 0 && res.Err != nil {
		rt.Fail("recv from %d: err=%v", op.From, res.Err)
		return nil, true
	}
	switch op.PC {
	case 0:
		op.PC = 1
		return api.Recv(rt.FDs[op.From], headerSize), false
	case 1:
		tag, n := decodeHeader(res.Data)
		if tag != op.Tag {
			rt.Fail("recv from %d: tag %d, want %d", op.From, tag, op.Tag)
			return nil, true
		}
		if n == 0 {
			op.Data = []byte{}
			return nil, true
		}
		op.PC = 2
		return api.Recv(rt.FDs[op.From], n), false
	default:
		op.Data = res.Data
		return nil, true
	}
}

// Collective tags live in a reserved space above user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagReduce  = 1<<20 + 2
	tagA2A     = 1<<20 + 3
)

// Barrier blocks until all ranks arrive: a flat gather of tokens to rank
// 0 followed by a token broadcast.
type Barrier struct {
	PC  int
	Sub Op
}

// NewBarrier constructs a barrier.
func NewBarrier() *Barrier { return &Barrier{} }

func (op *Barrier) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			op.Sub = nil
			res = guest.Result{}
		}
		if rt.Me == 0 {
			switch {
			case op.PC < rt.Size-1: // gather tokens from 1..P-1
				op.PC++
				op.Sub = recv(op.PC, tagBarrier)
			case op.PC < 2*(rt.Size-1): // release tokens
				op.PC++
				op.Sub = send(op.PC-(rt.Size-1), tagBarrier, nil)
			default:
				return nil, true
			}
		} else {
			switch op.PC {
			case 0:
				op.PC = 1
				op.Sub = send(0, tagBarrier, nil)
			case 1:
				op.PC = 2
				op.Sub = recv(0, tagBarrier)
			default:
				return nil, true
			}
		}
	}
}

// Bcast broadcasts Data from Root to all ranks along a binomial tree
// (the MPICH algorithm): log2(P) steps on the critical path.
type Bcast struct {
	Root int
	Data []byte

	PC   int
	Mask int
	Sub  Op
}

// NewBcast constructs a broadcast; only the root needs Data set.
func NewBcast(root int, data []byte) *Bcast { return &Bcast{Root: root, Data: data} }

func (op *Bcast) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			if r, ok := op.Sub.(*RecvMsg); ok {
				op.Data = r.Data
			}
			op.Sub = nil
			res = guest.Result{}
		}
		relative := (rt.Me - op.Root + rt.Size) % rt.Size
		switch op.PC {
		case 0: // find parent and receive (non-root only)
			if relative == 0 {
				op.Mask = 1
				for op.Mask < rt.Size {
					op.Mask <<= 1
				}
				op.Mask >>= 1
				op.PC = 2
				continue
			}
			mask := 1
			for relative&mask == 0 {
				mask <<= 1
			}
			src := (rt.Me - mask + rt.Size) % rt.Size
			op.Mask = mask >> 1
			op.PC = 1
			op.Sub = recv(src, tagBcast)
		case 1: // received; fall through to sending phase
			op.PC = 2
		case 2: // send to children
			for op.Mask > 0 {
				if relative+op.Mask < rt.Size {
					dst := (rt.Me + op.Mask) % rt.Size
					op.Mask >>= 1
					op.Sub = send(dst, tagBcast, op.Data)
					break
				}
				op.Mask >>= 1
			}
			if op.Sub == nil {
				return nil, true
			}
		}
	}
}

// ReduceKind selects the combining operator.
type ReduceKind int

// Reduction operators.
const (
	ReduceSum ReduceKind = iota
	ReduceMax
	// ReduceMaxLoc treats the vector as (value, location) pairs and keeps
	// the pair with the largest value, breaking ties toward the smaller
	// location — MPI_MAXLOC, which HPL's pivot search needs.
	ReduceMaxLoc
)

func combine(kind ReduceKind, acc, in []float64) {
	if kind == ReduceMaxLoc {
		for i := 0; i+1 < len(in); i += 2 {
			if in[i] > acc[i] || (in[i] == acc[i] && in[i+1] < acc[i+1]) {
				acc[i], acc[i+1] = in[i], in[i+1]
			}
		}
		return
	}
	for i := range in {
		switch kind {
		case ReduceSum:
			acc[i] += in[i]
		case ReduceMax:
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	}
}

// Reduce combines Data from every rank at Root (flat gather). On
// completion the root's Data holds the result.
type Reduce struct {
	Root int
	Kind ReduceKind
	Data []float64

	PC  int
	Sub Op
}

// NewReduce constructs a reduction over each rank's Data vector.
func NewReduce(root int, kind ReduceKind, data []float64) *Reduce {
	return &Reduce{Root: root, Kind: kind, Data: data}
}

func (op *Reduce) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			if r, ok := op.Sub.(*RecvMsg); ok {
				combine(op.Kind, op.Data, BytesToFloat64s(r.Data))
			}
			op.Sub = nil
			res = guest.Result{}
		}
		if rt.Me == op.Root {
			next := op.PC
			if next == op.Root {
				next++ // skip self
			}
			if next >= rt.Size {
				return nil, true
			}
			op.PC = next + 1
			op.Sub = recv(next, tagReduce)
		} else {
			if op.PC == 1 {
				return nil, true
			}
			op.PC = 1
			op.Sub = send(op.Root, tagReduce, Float64sToBytes(op.Data))
		}
	}
}

// Allreduce reduces to rank 0 then broadcasts the result; on completion
// every rank's Data holds the combined vector.
type Allreduce struct {
	Kind ReduceKind
	Data []float64

	PC  int
	Sub Op
}

// NewAllreduce constructs an allreduce over each rank's Data vector.
func NewAllreduce(kind ReduceKind, data []float64) *Allreduce {
	return &Allreduce{Kind: kind, Data: data}
}

func (op *Allreduce) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			switch s := op.Sub.(type) {
			case *Reduce:
				op.Data = s.Data
			case *Bcast:
				op.Data = BytesToFloat64s(s.Data)
			}
			op.Sub = nil
			res = guest.Result{}
		}
		switch op.PC {
		case 0:
			op.PC = 1
			op.Sub = NewReduce(0, op.Kind, op.Data)
		case 1:
			op.PC = 2
			var payload []byte
			if rt.Me == 0 {
				payload = Float64sToBytes(op.Data)
			}
			op.Sub = NewBcast(0, payload)
		default:
			return nil, true
		}
	}
}

// Alltoall exchanges one block with every peer (pairwise rotation
// schedule, P-1 steps). Blocks[d] is sent to rank d; on completion
// Recvd[s] holds the block from rank s (Recvd[Me] = Blocks[Me]).
type Alltoall struct {
	Blocks [][]byte
	Recvd  [][]byte

	Step int
	PC   int
	Sub  Op
}

// NewAlltoall constructs an all-to-all exchange of the given blocks.
func NewAlltoall(blocks [][]byte) *Alltoall { return &Alltoall{Blocks: blocks} }

func (op *Alltoall) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	if op.Recvd == nil {
		op.Recvd = make([][]byte, rt.Size)
		op.Recvd[rt.Me] = op.Blocks[rt.Me]
		op.Step = 1
	}
	for {
		if op.Sub != nil {
			gop, done := op.Sub.step(rt, api, res)
			if !done {
				return gop, false
			}
			if r, ok := op.Sub.(*RecvMsg); ok {
				op.Recvd[r.From] = r.Data
			}
			op.Sub = nil
			res = guest.Result{}
		}
		if op.Step >= rt.Size {
			return nil, true
		}
		to := (rt.Me + op.Step) % rt.Size
		from := (rt.Me - op.Step + rt.Size) % rt.Size
		switch op.PC {
		case 0:
			op.PC = 1
			op.Sub = send(to, tagA2A, op.Blocks[to])
		default:
			op.PC = 0
			op.Step++
			op.Sub = recv(from, tagA2A)
		}
	}
}
