package payload

import "io"

// DefaultChunkSize is the chunk granularity Writer uses when the caller
// does not specify one. 256 KiB keeps chunk-descriptor overhead
// negligible for checkpoint-sized images while avoiding the quadratic
// re-copying a growing contiguous buffer would pay.
const DefaultChunkSize = 256 << 10

// firstChunkSize is where small-write chunk sizing starts (it grows
// geometrically up to the writer's chunkSize), so a short sealed section
// neither zeroes nor pins a mostly-empty full-size chunk.
const firstChunkSize = 4 << 10

// Writer accumulates written bytes into chunks and hands them over as a
// Bytes rope without a final exact-size copy. It replaces the
// bytes.Buffer + defensive-copy pattern in checkpoint encoding: encode
// through the Writer, then Take() the image.
//
// Chunk geometry is an implementation detail (ropes are
// chunking-agnostic): small writes coalesce into chunks of roughly
// chunkSize, while any single write of at least chunkSize bytes becomes
// its own exactly-sized chunk, copied once with no spare capacity — and
// therefore no zeroing of memory the copy would overwrite anyway. The
// image codec writes each section as one Write, so a large section takes
// that path.
//
// The zero value is ready to use (DefaultChunkSize granularity).
type Writer struct {
	done      [][]byte // completed chunks, ownership with the writer
	cur       []byte   // partially filled chunk (len < cap)
	length    int
	chunkSize int
	grown     int // chunks completed since the last Seal/Take, drives geometric sizing
}

var _ io.Writer = (*Writer)(nil)

// NewWriter returns a Writer with the given chunk granularity
// (DefaultChunkSize if chunkSize <= 0).
func NewWriter(chunkSize int) *Writer {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Writer{chunkSize: chunkSize}
}

// Write appends p to the accumulated content. It never fails.
//
//dvc:hotpath
func (w *Writer) Write(p []byte) (int, error) {
	if w.chunkSize <= 0 {
		w.chunkSize = DefaultChunkSize
	}
	written := len(p)
	w.length += written
	for len(p) > 0 {
		if w.cur == nil {
			// Large-write fast path: the write becomes its own
			// exactly-sized chunk. append over a nil destination
			// allocates capacity == length, which the runtime does not
			// zero first — unlike make-with-spare-capacity, which pays a
			// full memclr for bytes the stream may never write.
			if len(p) >= w.chunkSize {
				//lint:allow noalloc the single sanctioned copy-in: one exactly-sized chunk per large write
				c := append([]byte(nil), p...)
				//lint:allow noalloc done grows one descriptor per chunk, amortized by geometric chunk sizing
				w.done = append(w.done, c[:len(c):len(c)])
				w.grown++
				return written, nil
			}
			// Small-write chunks grow geometrically from firstChunkSize
			// up to chunkSize, so short streams stay cheap without
			// penalising long ones. The counter resets at every
			// Seal/Take so chunk geometry is local to a sealed section.
			size := w.chunkSize
			if n := w.grown; n < 7 {
				if g := firstChunkSize << uint(n); g < size {
					size = g
				}
			}
			//lint:allow noalloc one geometric chunk per fill, not per byte; see the sizing comment above
			w.cur = make([]byte, 0, size)
		}
		room := cap(w.cur) - len(w.cur)
		n := len(p)
		if n > room {
			n = room
		}
		w.cur = append(w.cur, p[:n]...) //lint:allow noalloc n is clamped to spare capacity; this append never grows
		p = p[n:]
		if len(w.cur) == cap(w.cur) {
			//lint:allow noalloc done grows one descriptor per sealed chunk, amortized by geometric chunk sizing
			w.done = append(w.done, w.cur)
			w.cur = nil
			w.grown++
		}
	}
	return written, nil
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return w.length }

// Seal closes the partially filled chunk (shrunk to its exact size) and
// restarts geometric sizing, so the next write opens a fresh chunk at
// firstChunkSize. Sealing at a logical section boundary means no chunk
// straddles two sections, and each section's chunking is a pure
// function of that section's bytes, no matter what preceded it in the
// stream. A section that fits in one chunk (shorter than firstChunkSize,
// or written in one Write of at least chunkSize) therefore decodes in
// place: Slice(...).Flatten() of a single chunk returns the chunk
// itself, with no copy.
func (w *Writer) Seal() {
	if len(w.cur) > 0 {
		c := w.cur
		if len(c)*2 < cap(c) {
			c = append([]byte(nil), c...)
		}
		w.done = append(w.done, c[:len(c):len(c)])
	}
	w.cur = nil
	w.grown = 0
}

// Take returns the accumulated content as a Bytes rope, transferring
// chunk ownership to the rope (per the package immutability contract the
// chunks must not be mutated afterwards), and resets the Writer for
// reuse.
func (w *Writer) Take() Bytes {
	chunks := w.done
	if len(w.cur) > 0 {
		c := w.cur
		if len(c)*2 < cap(c) {
			// A mostly-empty tail chunk would pin its whole backing
			// array for the life of the rope; shrink it to size.
			c = append([]byte(nil), c...)
		}
		// Clip capacity so a future Flatten of a single-chunk rope
		// cannot expose writable spare capacity.
		chunks = append(chunks, c[:len(c):len(c)])
	}
	out := Bytes{chunks: chunks, length: w.length}
	if len(chunks) == 0 {
		out = Bytes{}
	}
	w.done, w.cur, w.length, w.grown = nil, nil, 0, 0
	return out
}
