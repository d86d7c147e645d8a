// Package storage models the reliable shared image store the paper
// requires ("requiring only a reliable storage system to save the state
// of each OS, and an image management capability to track the correct
// staging and restart of images").
//
// The store serves concurrent transfers with fair-shared aggregate
// bandwidth, optionally capped per transfer (client NIC/disk). A 26-VM
// coordinated save is therefore paced the way a real NFS/SAN head would
// pace it.
package storage

import (
	"fmt"
	"sort"
	"strings"

	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// Config tunes the store.
type Config struct {
	// Bandwidth is the aggregate server bandwidth in bytes/s.
	Bandwidth float64
	// PerTransferCap bounds a single transfer's rate (client side);
	// zero means no cap.
	PerTransferCap float64
	// BaseLatency is per-operation setup latency.
	BaseLatency sim.Time
}

// DefaultConfig models a mid-2000s NFS server on gigabit with striped
// disks.
func DefaultConfig() Config {
	return Config{
		Bandwidth:      200e6,
		PerTransferCap: 80e6,
		BaseLatency:    5 * sim.Millisecond,
	}
}

// Object is one stored image with its metadata. The image is kept as
// written: its rope and page table are immutable, so a Delete+GC racing
// a read cannot hurt the bytes the read returns. A delta object
// (Image.Delta) holds references on the modelled chunks its table
// names in the shared pool.
type Object struct {
	Key   string
	Size  int64
	Image *vm.Image
}

type transfer struct {
	seq       uint64 // admission order; deterministic tiebreak for completions
	remaining float64
	onDone    func()
}

// Store is the shared checkpoint repository.
type Store struct {
	kernel  *sim.Kernel
	cfg     Config
	objects map[string]*Object

	active     map[*transfer]struct{}
	nextSeq    uint64
	lastUpdate sim.Time
	pending    *sim.Timer // completion event; rearmed in place per reschedule

	// Chunk pool shared by every delta object (see delta.go); nil
	// until the first delta write.
	chunks *chunkPool
	tracer *obs.Tracer

	// Stats
	Writes, Reads uint64
	DeltaWrites   uint64
	BytesWritten  uint64
}

// New creates an empty store.
func New(k *sim.Kernel, cfg Config) *Store {
	return &Store{
		kernel:  k,
		cfg:     cfg,
		objects: make(map[string]*Object),
		active:  make(map[*transfer]struct{}),
	}
}

// rate returns the current per-transfer rate under fair sharing.
func (s *Store) rate() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	r := s.cfg.Bandwidth / float64(n)
	if s.cfg.PerTransferCap > 0 && r > s.cfg.PerTransferCap {
		r = s.cfg.PerTransferCap
	}
	return r
}

// settle advances all active transfers to the current instant.
func (s *Store) settle() {
	now := s.kernel.Now()
	elapsed := float64(now-s.lastUpdate) / float64(sim.Second)
	if elapsed > 0 {
		r := s.rate()
		for t := range s.active {
			t.remaining -= r * elapsed
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
	}
	s.lastUpdate = now
}

// reschedule points the completion event at the next finishing transfer.
func (s *Store) reschedule() {
	if len(s.active) == 0 {
		s.pending.Stop()
		return
	}
	if s.pending == nil {
		s.pending = sim.NewTimer(s.kernel, s.complete)
	}
	r := s.rate()
	var next *transfer
	for t := range s.active {
		// Min-reduction: eta below depends only on the minimum remaining
		// value, and ties produce an identical eta, so the identity of
		// `next` never reaches the kernel.
		if next == nil || t.remaining < next.remaining {
			next = t //lint:allow mapiter min-reduction; only the minimum value is used
		}
	}
	eta := sim.Time(next.remaining / r * float64(sim.Second))
	s.pending.Reset(eta)
}

// complete finishes every transfer that has drained.
func (s *Store) complete() {
	s.settle()
	var done []*transfer
	for t := range s.active {
		if t.remaining <= 0.5 { // sub-byte residue from float math
			done = append(done, t)
		}
	}
	// Completion callbacks schedule further events; fire them in admission
	// order, not randomized map order, so replay is exact.
	sort.Slice(done, func(i, j int) bool { return done[i].seq < done[j].seq })
	for _, t := range done {
		delete(s.active, t)
	}
	s.reschedule()
	for _, t := range done {
		if t.onDone != nil {
			t.onDone()
		}
	}
}

// begin starts a transfer of size bytes and calls onDone at completion.
func (s *Store) begin(size int64, onDone func()) {
	s.kernel.After(s.cfg.BaseLatency, func() {
		s.settle()
		t := &transfer{seq: s.nextSeq, remaining: float64(size), onDone: onDone}
		s.nextSeq++
		s.active[t] = struct{}{}
		s.reschedule()
	})
}

// WriteInfo summarises one Write: how many modelled bytes the object
// covers, how many actually crossed the wire, and the chunk dedup split
// (zero for a full image).
type WriteInfo struct {
	Logical     int64 // bytes the object describes (all of guest RAM)
	Sent        int64 // bytes transferred
	DedupChunks int   // chunks the pool already held
	NewChunks   int   // chunks transferred
}

// Write stores an image under key, calling onDone when the transfer
// completes. A full image sends all of its RAM. A delta image
// (Image.Delta) must carry a well-formed page table; the store pins its
// chunks and transfers only those it does not already hold plus
// manifest metadata. The returned WriteInfo is computed at admission,
// before the transfer completes. Overwrites are allowed (new checkpoint
// generation under the same key replaces the old, releasing its chunk
// references at completion, exactly when the new object replaces it).
func (s *Store) Write(key string, img *vm.Image, onDone func()) (WriteInfo, error) {
	if img.RAMBytes < 0 {
		return WriteInfo{}, fmt.Errorf("storage: write %q: image of %d bytes", key, img.RAMBytes)
	}
	info := WriteInfo{Logical: img.RAMBytes, Sent: img.RAMBytes}
	if img.Delta {
		if img.Pages == nil {
			return WriteInfo{}, fmt.Errorf("storage: write %q: delta image has no page table", key)
		}
		if err := img.Pages.Validate(img.RAMBytes); err != nil {
			return WriteInfo{}, fmt.Errorf("storage: write %q: %w", key, err)
		}
		if s.chunks == nil {
			s.chunks = newChunkPool()
		}
		info = s.chunks.pin(img.Pages)
		s.DeltaWrites++
		s.tracer.Inc("store.delta.writes", 1)
		s.tracer.Inc("store.delta.logical_bytes", float64(info.Logical))
		s.tracer.Inc("store.delta.sent_bytes", float64(info.Sent))
		s.tracer.Inc("store.delta.dedup_chunks", float64(info.DedupChunks))
	} else {
		s.Writes++
	}
	s.BytesWritten += uint64(info.Sent)
	s.begin(info.Sent, func() {
		s.releaseObject(s.objects[key])
		s.objects[key] = &Object{Key: key, Size: info.Logical, Image: img}
		if onDone != nil {
			onDone()
		}
	})
	return info, nil
}

// releaseObject drops the pool references a stored delta object holds.
func (s *Store) releaseObject(o *Object) {
	if o != nil && o.Image.Delta {
		s.chunks.release(o.Key, o.Image.Pages)
	}
}

// Read fetches an image by key, calling onDone with it (or an error) when
// the transfer completes. Missing keys fail after the base latency.
func (s *Store) Read(key string, onDone func(*vm.Image, error)) {
	obj, ok := s.objects[key]
	if !ok {
		s.kernel.After(s.cfg.BaseLatency, func() {
			onDone(nil, fmt.Errorf("storage: no object %q", key))
		})
		return
	}
	s.Reads++
	s.begin(obj.Size, func() { onDone(obj.Image, nil) })
}

// Delete removes an object (metadata operation, instantaneous). Delta
// objects release their chunk references; the chunks themselves stay
// resident until GC runs.
func (s *Store) Delete(key string) {
	s.releaseObject(s.objects[key])
	delete(s.objects, key)
}

// Keys lists stored keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	var out []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TotalBytes reports the sum of stored object sizes.
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, o := range s.objects {
		n += o.Size
	}
	return n
}
