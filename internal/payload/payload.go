// Package payload provides the zero-copy byte containers of the data
// plane: an immutable chunked byte rope (Bytes) that the mpi, guest, tcp
// and vm layers share instead of copying payload bytes at every layer
// boundary. A checkpoint image is a one-chunk rope.
//
// # Immutability contract
//
// A []byte handed to Wrap (directly or via the layers built on it —
// guest.Send, mpi.Ctx.Send, tcp WritePayload) transfers *visibility*, not a
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
// The first two chunks live inline (c0, c1), so the ropes the data
// plane builds — one body, or an mpi header plus its body — are plain
// values and cost no allocation. Chunks past the second spill into
// rest, which is held by pointer to keep a rope at 64 bytes: the layers
// pass ropes by value, and the compiler copies 64 bytes inline but
// larger values through a runtime copy routine. Every chunk is
// non-empty, and a slot is filled only if every slot before it is: c1
// is empty unless c0 is set, rest is nil unless c1 is set.
//
// The zero value is an empty rope. Bytes values are compared with Equal,
// not ==.
type Bytes struct {
	c0, c1 []byte
	rest   *[][]byte // chunks 2..n-1, or nil; never appended to once the rope is built
	length int
}

// Wrap makes a single-chunk rope referencing b without copying. The
// caller gives up the right to mutate b (see the package contract); an
// empty or nil b yields the empty rope.
//
//dvc:hotpath
func Wrap(b []byte) Bytes {
	if len(b) == 0 {
		return Bytes{}
	}
	return Bytes{c0: b, length: len(b)}
}

// FromChunks makes a rope referencing the given parts without copying
// (empty parts are skipped). It is the constructor the transport queues
// use to assemble segment views that span chunk boundaries; up to two
// non-empty parts it allocates nothing.
//
//dvc:hotpath
func FromChunks(parts ...[]byte) Bytes {
	var b Bytes
	for _, p := range parts {
		b.add(p)
	}
	return b
}

// add appends chunk c (skipped if empty) to a rope under construction,
// filling the inline slots before spilling. Only the builder of a rope
// calls it, before the rope is shared, so appending to rest never
// writes into a slice another rope holds.
//
//dvc:hotpath
func (b *Bytes) add(c []byte) {
	switch {
	case len(c) == 0:
		return
	case len(b.c0) == 0:
		b.c0 = c
	case len(b.c1) == 0:
		b.c1 = c
	default:
		if b.rest == nil {
			b.rest = new([][]byte) //lint:allow noalloc spill past two inline chunks; the data plane's ropes have at most two
		}
		*b.rest = append(*b.rest, c) //lint:allow noalloc spill past two inline chunks; the data plane's ropes have at most two
	}
	b.length += len(c)
}

// Len returns the total byte length.
func (b Bytes) Len() int { return b.length }

// NumChunks reports how many chunks back the rope (0 for the empty rope).
func (b Bytes) NumChunks() int {
	switch {
	case len(b.c0) == 0:
		return 0
	case len(b.c1) == 0:
		return 1
	}
	if b.rest == nil {
		return 2
	}
	return 2 + len(*b.rest)
}

// Chunk returns the i-th backing chunk and panics unless
// 0 <= i < NumChunks. The chunk is shared: callers must treat its
// contents as read-only.
func (b Bytes) Chunk(i int) []byte {
	switch {
	case i == 0 && len(b.c0) > 0:
		return b.c0
	case i == 1 && len(b.c1) > 0:
		return b.c1
	}
	return (*b.rest)[i-2] // panics for every index not served above: rest is nil or too short
}

// Slice returns the sub-rope [i, j) as a view over the same chunks — no
// bytes are copied. It panics on an invalid range, mirroring b[i:j].
//
//dvc:hotpath
func (b Bytes) Slice(i, j int) Bytes {
	if i < 0 || j < i || j > b.length {
		panic(fmt.Sprintf("payload: slice [%d:%d] of %d bytes", i, j, b.length))
	}
	if i == 0 && j == b.length {
		return b
	}
	var out Bytes
	// Walk to the chunk containing i, then collect until j is covered.
	for k := 0; j > 0; k++ {
		c := b.Chunk(k)
		if i >= len(c) {
			i -= len(c)
			j -= len(c)
			continue
		}
		end := len(c)
		if j < end {
			end = j
		}
		out.add(c[i:end:end])
		i = 0
		j -= len(c)
	}
	return out
}

// Flatten returns the rope's content as one contiguous []byte. A
// single-chunk rope returns its chunk directly (capacity clipped, no
// copy); multi-chunk ropes copy once. The result is governed by the
// package immutability contract either way.
func (b Bytes) Flatten() []byte {
	switch b.NumChunks() {
	case 0:
		return []byte{}
	case 1:
		return b.c0[:len(b.c0):len(b.c0)]
	}
	out := make([]byte, b.length)
	b.CopyTo(out)
	return out
}

// AppendTo appends the rope's content to dst and returns the result,
// copying through chunk boundaries.
func (b Bytes) AppendTo(dst []byte) []byte {
	for k, n := 0, b.NumChunks(); k < n; k++ {
		dst = append(dst, b.Chunk(k)...)
	}
	return dst
}

// CopyTo copies the rope into dst (which must be at least Len() bytes)
// and returns the number of bytes copied.
func (b Bytes) CopyTo(dst []byte) int {
	off := 0
	for k, n := 0, b.NumChunks(); k < n; k++ {
		off += copy(dst[off:], b.Chunk(k))
	}
	return off
}

// Equal reports whether two ropes hold the same byte content, regardless
// of chunking. Only tests call it: the payload, guest, imgcodec, storage
// and core tests compare ropes with it.
func (b Bytes) Equal(q Bytes) bool {
	if b.length != q.length {
		return false
	}
	var bc, qc []byte // unread rest of the current chunk of each rope
	bi, qi := 0, 0    // index of the next chunk to load
	for left := b.length; left > 0; {
		if len(bc) == 0 {
			bc, bi = b.Chunk(bi), bi+1
		}
		if len(qc) == 0 {
			qc, qi = q.Chunk(qi), qi+1
		}
		n := min(len(bc), len(qc))
		if string(bc[:n]) != string(qc[:n]) {
			return false
		}
		bc, qc = bc[n:], qc[n:]
		left -= n
	}
	return true
}

// String renders a short diagnostic form (not the content).
func (b Bytes) String() string {
	return fmt.Sprintf("payload.Bytes{len=%d chunks=%d}", b.length, b.NumChunks())
}
