package payload

import (
	"bytes"
	"testing"
)

// fuzzOps decodes fuzz input one byte at a time; past the end it reads
// zeros, so every input is a complete program.
type fuzzOps []byte

func (f *fuzzOps) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// FuzzBytesOps runs a fuzzed program of Wrap, FromChunks, Slice and
// concatenation (FromChunks over two ropes' chunks) operations over a
// small pool of ropes, each paired with a flat []byte model, and checks
// every result with checkRope. Chunk counts cross the inline/spill
// boundary (zero, one, two, then three or more chunks) in both
// directions. At the end every rope in the pool must
// still match its model: building one rope never writes into a chunk
// list another rope shares.
//
// Program bytes: an opcode (mod 4), then its operands.
//
//	0 n         Wrap of n%8 fresh bytes (0 = the empty rope)
//	1 k l...    FromChunks of k%6 fresh parts of l%5 bytes (empty parts allowed)
//	2 p i j     pool[p].Slice(i, j), both clamped into range
//	3 p q       concat(pool[p], pool[q])
func FuzzBytesOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256] // longer programs add nothing but runtime
		}
		ops := fuzzOps(prog)
		var seq byte
		fresh := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				seq++
				b[i] = seq
			}
			return b
		}
		pick := func(pool []pair) pair { return pool[int(ops.next())%len(pool)] }
		pool := []pair{{}}
		for len(ops) > 0 {
			var next pair
			switch ops.next() % 4 {
			case 0:
				b := fresh(int(ops.next() % 8))
				next = pair{Wrap(b), append([]byte(nil), b...)}
			case 1:
				parts := make([][]byte, ops.next()%6)
				for i := range parts {
					parts[i] = fresh(int(ops.next() % 5))
					next.model = append(next.model, parts[i]...)
				}
				next.rope = FromChunks(parts...)
			case 2:
				p := pick(pool)
				i := int(ops.next()) % (len(p.model) + 1)
				j := i + int(ops.next())%(len(p.model)-i+1)
				next = pair{p.rope.Slice(i, j), append([]byte(nil), p.model[i:j]...)}
			case 3:
				next = concat(pick(pool), pick(pool))
			}
			checkRope(t, next.rope, next.model)
			for _, p := range pool {
				if got := p.rope.Equal(next.rope); got != bytes.Equal(p.model, next.model) {
					t.Fatalf("Equal=%v disagrees with the models", got)
				}
			}
			pool = append(pool, next)
			if len(pool) > 16 {
				pool = pool[1:]
			}
		}
		for _, p := range pool {
			checkRope(t, p.rope, p.model)
		}
	})
}
