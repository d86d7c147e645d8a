package tcp

import (
	"fmt"

	"dvc/internal/payload"
)

// chunkRing is a FIFO byte queue over shared chunk references — the
// backing structure for a connection's send and receive queues. It
// replaces the old append-and-reslice []byte buffers, which had two
// costs the data plane could not afford:
//
//   - every enqueued byte was copied into the buffer's backing array
//     (append), and
//   - consuming from the front (buf = buf[n:]) kept the full backing
//     array reachable for the connection's lifetime, so a connection
//     that once moved a large transfer pinned that much memory forever.
//
// The ring stores chunk *descriptors* in a circular array. Enqueued
// ropes contribute their chunks by reference (no byte copy); consumed
// chunks have their slots nil'ed so the backing arrays become
// collectable as soon as the data is acknowledged (send side) or read
// (receive side). Byte offsets into the queue — the currency of TCP
// sequence arithmetic — are resolved by walking descriptors, which is
// cheap because chunks are segment-sized or larger.
//
// Chunks obey the payload package's immutability contract: the ring
// never writes into a chunk, so its views can be shared with in-flight
// segments, the peer's reassembly state, and the application at once.
type chunkRing struct {
	chunks  [][]byte // circular descriptor array (len is a power of two once grown)
	head    int      // index of the first live chunk
	n       int      // number of live chunks
	headOff int      // bytes of the head chunk already consumed
	size    int      // total readable bytes
}

// len returns the number of readable bytes queued.
func (r *chunkRing) len() int { return r.size }

// at returns the k-th live chunk (0 = head).
func (r *chunkRing) at(k int) []byte { return r.chunks[(r.head+k)%len(r.chunks)] }

// push appends a rope's chunks to the tail by reference.
//
//dvc:hotpath
func (r *chunkRing) push(b payload.Bytes) {
	for k, n := 0, b.NumChunks(); k < n; k++ {
		r.pushChunk(b.Chunk(k))
	}
}

// pushChunk appends one chunk to the tail by reference (empty chunks
// are ignored).
//
//dvc:hotpath
func (r *chunkRing) pushChunk(c []byte) {
	if len(c) == 0 {
		return
	}
	if r.n == len(r.chunks) {
		r.grow()
	}
	r.chunks[(r.head+r.n)%len(r.chunks)] = c
	r.n++
	r.size += len(c)
}

// grow doubles the descriptor array, compacting live descriptors to the
// front. Descriptor slots are pointers-and-lengths, not data: even a
// long queue costs a few hundred bytes of descriptor space.
//
//dvc:hotpath
func (r *chunkRing) grow() {
	newCap := 2 * len(r.chunks)
	if newCap == 0 {
		newCap = 8
	}
	//lint:allow noalloc amortized descriptor-array doubling; data chunks are never copied
	fresh := make([][]byte, newCap)
	for i := 0; i < r.n; i++ {
		fresh[i] = r.at(i)
	}
	r.chunks = fresh
	r.head = 0
}

// view returns the byte range [off, off+n) of the queue as a zero-copy
// rope over the ring's chunks. It panics on an out-of-range request —
// callers derive off/n from sequence arithmetic, so a bad range is a
// protocol-logic bug, not an I/O condition.
//
//dvc:hotpath
func (r *chunkRing) view(off, n int) payload.Bytes {
	if off < 0 || n < 0 || off+n > r.size {
		panic(fmt.Sprintf("tcp: ring view [%d,%d) of %d bytes", off, off+n, r.size))
	}
	if n == 0 {
		return payload.Bytes{}
	}
	off += r.headOff
	k := 0
	for {
		c := r.at(k)
		if off < len(c) {
			break
		}
		off -= len(c)
		k++
	}
	c := r.at(k)
	if off+n <= len(c) {
		// Single-chunk fast path: the common case, since chunks are
		// message- or segment-sized.
		return payload.Wrap(c[off : off+n : off+n])
	}
	first := c[off:len(c):len(c)]
	n -= len(first)
	if next := r.at(k + 1); n <= len(next) {
		// Two chunks (an mpi header and its body) make an inline rope.
		return payload.FromChunks(first, next[:n:n])
	}
	//lint:allow noalloc views over three or more chunks only; one- and two-chunk views are allocation-free
	parts := make([][]byte, 0, 4)
	parts = append(parts, first) //lint:allow noalloc slow path; usually fits the 4-descriptor pre-size
	for k++; n > 0; k++ {
		c = r.at(k)
		take := min(n, len(c))
		parts = append(parts, c[:take:take]) //lint:allow noalloc slow path; usually fits the 4-descriptor pre-size
		n -= take
	}
	return payload.FromChunks(parts...)
}

// consume drops n bytes from the front of the queue. Fully consumed
// chunks have their descriptor slots nil'ed so the ring stops keeping
// their backing arrays alive — the fix for the reslice-pinning bug the
// old []byte buffers had.
//
//dvc:hotpath
func (r *chunkRing) consume(n int) {
	if n < 0 || n > r.size {
		panic(fmt.Sprintf("tcp: ring consume %d of %d bytes", n, r.size))
	}
	r.size -= n
	for n > 0 {
		c := r.chunks[r.head]
		avail := len(c) - r.headOff
		if n < avail {
			r.headOff += n
			return
		}
		n -= avail
		r.chunks[r.head] = nil // release the backing array
		r.head = (r.head + 1) % len(r.chunks)
		r.n--
		r.headOff = 0
	}
	if r.n == 0 {
		r.head, r.headOff = 0, 0
	}
}

// copyOut returns a fresh contiguous copy of the whole queue — the
// checkpoint boundary, where images must not alias live simulation
// state.
func (r *chunkRing) copyOut() []byte {
	out := make([]byte, r.size)
	off := 0
	for k := 0; k < r.n; k++ {
		c := r.at(k)
		if k == 0 {
			c = c[r.headOff:]
		}
		off += copy(out[off:], c)
	}
	return out
}
