package payload

import (
	"crypto/sha256"
	"encoding/hex"
)

// ChunkID is the stable content identity of one rope chunk: the SHA-256
// of its bytes (ChunkIDOf). Two chunks with equal content — across
// epochs, across VMs, across stores — share one ChunkID, which is what
// makes the storage layer's blob dedup a pure function of content
// rather than of write order. (Modelled RAM chunks are named
// structurally instead, by vm.ChunkKey.)
//
// ChunkIDs are comparable with == and sort with bytes.Compare over
// id[:]; deterministic iteration over a map keyed by ChunkID must sort
// the keys first (the usual mapiter rule).
type ChunkID [32]byte

// ChunkIDOf returns the content identity of one chunk.
//
//dvc:hotpath
func ChunkIDOf(chunk []byte) ChunkID { return sha256.Sum256(chunk) }

// String renders a short hex prefix for diagnostics.
func (id ChunkID) String() string { return hex.EncodeToString(id[:6]) }

// AppendChunkIDs appends the content identity of every chunk backing b
// to dst and returns the result. Chunk geometry is observable here by
// design: callers that need stable identities across encodes must seal
// their section boundaries (Writer.Seal) so equal sections yield equal
// chunkings.
func (b Bytes) AppendChunkIDs(dst []ChunkID) []ChunkID {
	for _, c := range b.chunks {
		dst = append(dst, ChunkIDOf(c))
	}
	return dst
}
