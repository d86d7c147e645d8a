// Package payload provides the zero-copy byte containers of the data
// plane: an immutable chunked byte rope (Bytes) that the mpi, guest, tcp
// and vm layers share instead of copying payload bytes at every layer
// boundary. A checkpoint image is a one-chunk rope.
//
// # Immutability contract
//
// A []byte handed to Wrap (directly or via the layers built on it —
// guest.Send, mpi.Send, tcp WritePayload) transfers *visibility*, not a
// copy: the same backing array may simultaneously sit in a sender's TCP
// retransmission queue, on the simulated wire, in the receiver's
// reassembly ring and in the receiving application's hands. This is safe
// under two rules the simulation already enforces:
//
//  1. Chunks are never mutated after entering a Bytes. Producers build a
//     fresh buffer per message; consumers treat received data as
//     read-only. The one sanctioned exception is a shared body that is
//     never written: the hpcc halo kernel sends capacity-clipped slices
//     of one package-level zero array, which is safe across kernels and
//     goroutines because every holder only reads it. Flatten of a
//     single-chunk rope returns the chunk itself with capacity clipped to
//     its length, so an append by the consumer copies instead of growing
//     into shared space.
//  2. All access happens on one kernel's event loop. Simulation state is
//     single-threaded by design (one sim.Kernel per trial, kernels never
//     cross goroutines — the dvclint noconcurrency rule and the
//     internal/fleet sanction), so sharing needs no synchronisation.
//
// See DESIGN.md "Data plane" for how the layers use these types.
package payload

import "fmt"

// Bytes is an immutable rope of byte chunks: cheap to slice, concatenate
// and share, flattened to a contiguous []byte only at true boundaries
// (application delivery of multi-segment reads, checkpoint images).
//
// The zero value is an empty rope. Bytes values are compared with Equal,
// not ==.
type Bytes struct {
	chunks [][]byte // every chunk is non-empty
	length int
}

// Wrap makes a single-chunk rope referencing b without copying. The
// caller gives up the right to mutate b (see the package contract); an
// empty or nil b yields the empty rope.
func Wrap(b []byte) Bytes {
	if len(b) == 0 {
		return Bytes{}
	}
	return Bytes{chunks: [][]byte{b}, length: len(b)}
}

// FromChunks makes a rope referencing the given parts without copying
// (empty parts are skipped). It is the constructor the transport queues
// use to assemble segment views that span chunk boundaries.
func FromChunks(parts ...[]byte) Bytes {
	n := 0
	for _, p := range parts {
		if len(p) > 0 {
			n++
		}
	}
	if n == 0 {
		return Bytes{}
	}
	chunks := make([][]byte, 0, n)
	length := 0
	for _, p := range parts {
		if len(p) > 0 {
			chunks = append(chunks, p)
			length += len(p)
		}
	}
	return Bytes{chunks: chunks, length: length}
}

// Len returns the total byte length.
func (b Bytes) Len() int { return b.length }

// NumChunks reports how many chunks back the rope (0 for the empty rope).
func (b Bytes) NumChunks() int { return len(b.chunks) }

// Chunks returns the backing chunks in order. The returned slices are
// shared: callers must treat both the descriptor slice and the chunk
// contents as read-only.
func (b Bytes) Chunks() [][]byte { return b.chunks[:len(b.chunks):len(b.chunks)] }

// At returns the byte at index i (panics if out of range).
func (b Bytes) At(i int) byte {
	if i < 0 || i >= b.length {
		panic(fmt.Sprintf("payload: index %d out of range [0,%d)", i, b.length))
	}
	for _, c := range b.chunks {
		if i < len(c) {
			return c[i]
		}
		i -= len(c)
	}
	panic("payload: corrupted rope") // unreachable: length matches chunks
}

// Slice returns the sub-rope [i, j) as a view over the same chunks — no
// bytes are copied. It panics on an invalid range, mirroring b[i:j].
func (b Bytes) Slice(i, j int) Bytes {
	if i < 0 || j < i || j > b.length {
		panic(fmt.Sprintf("payload: slice [%d:%d] of %d bytes", i, j, b.length))
	}
	if i == j {
		return Bytes{}
	}
	out := Bytes{length: j - i}
	// Walk to the chunk containing i, then collect until j is covered.
	for ci := 0; ci < len(b.chunks); ci++ {
		c := b.chunks[ci]
		if i >= len(c) {
			i -= len(c)
			j -= len(c)
			continue
		}
		if j <= len(c) {
			out.chunks = [][]byte{c[i:j:j]}
			return out
		}
		parts := make([][]byte, 0, 2)
		parts = append(parts, c[i:len(c):len(c)])
		j -= len(c)
		for ci++; ci < len(b.chunks); ci++ {
			c = b.chunks[ci]
			if j <= len(c) {
				parts = append(parts, c[:j:j])
				out.chunks = parts
				return out
			}
			parts = append(parts, c)
			j -= len(c)
		}
		break
	}
	panic("payload: corrupted rope") // unreachable: length matches chunks
}

// Concat returns the concatenation of b and q, sharing both ropes'
// chunks.
func (b Bytes) Concat(q Bytes) Bytes {
	if b.length == 0 {
		return q
	}
	if q.length == 0 {
		return b
	}
	chunks := make([][]byte, 0, len(b.chunks)+len(q.chunks))
	chunks = append(chunks, b.chunks...)
	chunks = append(chunks, q.chunks...)
	return Bytes{chunks: chunks, length: b.length + q.length}
}

// Flatten returns the rope's content as one contiguous []byte. A
// single-chunk rope returns its chunk directly (capacity clipped, no
// copy); multi-chunk ropes copy once. The result is governed by the
// package immutability contract either way.
func (b Bytes) Flatten() []byte {
	switch len(b.chunks) {
	case 0:
		return []byte{}
	case 1:
		c := b.chunks[0]
		return c[:len(c):len(c)]
	}
	out := make([]byte, b.length)
	off := 0
	for _, c := range b.chunks {
		off += copy(out[off:], c)
	}
	return out
}

// AppendTo appends the rope's content to dst and returns the result,
// copying through chunk boundaries.
func (b Bytes) AppendTo(dst []byte) []byte {
	for _, c := range b.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// CopyTo copies the rope into dst (which must be at least Len() bytes)
// and returns the number of bytes copied.
func (b Bytes) CopyTo(dst []byte) int {
	off := 0
	for _, c := range b.chunks {
		off += copy(dst[off:], c)
	}
	return off
}

// Equal reports whether two ropes hold the same byte content, regardless
// of chunking.
func (b Bytes) Equal(q Bytes) bool {
	if b.length != q.length {
		return false
	}
	bi, bo := 0, 0 // chunk index, offset within chunk
	qi, qo := 0, 0
	for bi < len(b.chunks) {
		bc, qc := b.chunks[bi][bo:], q.chunks[qi][qo:]
		n := len(bc)
		if len(qc) < n {
			n = len(qc)
		}
		for k := 0; k < n; k++ {
			if bc[k] != qc[k] {
				return false
			}
		}
		if bo += n; bo == len(b.chunks[bi]) {
			bi, bo = bi+1, 0
		}
		if qo += n; qo == len(q.chunks[qi]) {
			qi, qo = qi+1, 0
		}
	}
	return true
}

// String renders a short diagnostic form (not the content).
func (b Bytes) String() string {
	return fmt.Sprintf("payload.Bytes{len=%d chunks=%d}", b.length, len(b.chunks))
}
