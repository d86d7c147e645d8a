package guest

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dvc/internal/imgcodec"
	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// Sectioned image format. A checkpoint image is a sequence of
// independently encoded sections (internal/imgcodec) followed by a
// binary trailer:
//
//	section 0              imageMeta (fixed header: counts + scalar OS state)
//	sections 1..NumProcs   one ProcSnapshot each
//	section NumProcs+1     fdTable (FD and accept maps flattened to sorted slices)
//	then ceil(NumLog/256)  log groups of logGroupSize LogEntries each
//	last section           stackSection (the TCP stack)
//	trailer                per-section uint32 LE lengths, uint32 LE count,
//	                       uint64 LE schema hash, "DVC3"
//
// Why sections: each section is one codec value written in one Write,
// and Writer.Seal aligns chunk boundaries with section boundaries, so a
// section never shares a chunk with its neighbours and a section that
// fits one chunk decodes in place, without being copied out of the
// rope. The codec writes no type descriptors and orders map entries by
// key, so the image bytes — and an unchanged section's chunks, epoch
// after epoch — are a pure function of the guest state. Each section
// also decodes on its own, which is what lets a reader (and the fuzzer)
// reject a damaged section without trusting its neighbours.
//
// The schema hash covers the wire layout of the fixed section types; a
// build whose layout differs rejects the image instead of misreading it.
// Interface payloads (programs, ops) carry their own plan hashes.
const (
	imageMagic   = "DVC3"
	logGroupSize = 256
	trailerFixed = 16 // count + schema hash + magic
)

// schemaHash identifies the wire layout of the sections' root types.
var schemaHash = mustSchemaHash()

func mustSchemaHash() uint64 {
	h, err := imgcodec.SchemaHash(&imageMeta{}, &ProcSnapshot{}, &fdTable{}, &[]LogEntry{}, &stackSection{})
	if err != nil {
		panic(err)
	}
	return h
}

// imageMeta is section 0 of every image: the scalar OS state plus the
// counts that size the variable sections.
//
//dvc:checkpoint-root
type imageMeta struct {
	NextPID   PID
	NextFD    int
	Listens   []uint16
	Jiffies   sim.Time
	WD        WatchdogConfig
	WDLeft    sim.Time
	WDTimeout int
	CPUFactor float64
	NumProcs  int
	NumLog    int
}

// fdTable is the Snapshot's FD and accept-queue maps flattened to
// key-sorted slices so the encoded bytes are a pure function of the
// contents.
//
//dvc:checkpoint-root
type fdTable struct {
	FDs     []fdEntry
	Accepts []acceptEntry
}

type fdEntry struct {
	FD  int
	Key tcp.ConnKey
}

type acceptEntry struct {
	Port uint16
	Keys []tcp.ConnKey
}

// stackSection wraps the stack pointer so a nil stack (hand-built test
// snapshots) round-trips as nil.
//
//dvc:checkpoint-root
type stackSection struct {
	Stack *tcp.StackSnapshot
}

// sectionWriter counts the bytes of the current section and closes the
// underlying writer's chunk at each boundary when it supports sealing
// (payload.Writer and the hypervisor's checksumming tee both do).
type sectionWriter struct {
	w    io.Writer
	n    int
	lens []int
}

func (s *sectionWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.n += n
	return n, err
}

func (s *sectionWriter) end() {
	s.lens = append(s.lens, s.n)
	s.n = 0
	if sealer, ok := s.w.(interface{ Seal() }); ok {
		sealer.Seal()
	}
}

// encodeImageSections writes snap to w in the sectioned format.
func encodeImageSections(snap *Snapshot, w io.Writer) error {
	sw := &sectionWriter{w: w}
	section := func(v any) error {
		if err := imgcodec.Encode(sw, v); err != nil {
			return fmt.Errorf("guest: encoding image: %w", err)
		}
		sw.end()
		return nil
	}
	meta := imageMeta{
		NextPID:   snap.NextPID,
		NextFD:    snap.NextFD,
		Listens:   snap.Listens,
		Jiffies:   snap.Jiffies,
		WD:        snap.WD,
		WDLeft:    snap.WDLeft,
		WDTimeout: snap.WDTimeout,
		CPUFactor: snap.CPUFactor,
		NumProcs:  len(snap.Procs),
		NumLog:    len(snap.Log),
	}
	if err := section(&meta); err != nil {
		return err
	}
	for i := range snap.Procs {
		if err := section(&snap.Procs[i]); err != nil {
			return err
		}
	}
	fd := buildFDTable(snap)
	if err := section(&fd); err != nil {
		return err
	}
	for off := 0; off < len(snap.Log); off += logGroupSize {
		end := off + logGroupSize
		if end > len(snap.Log) {
			end = len(snap.Log)
		}
		group := snap.Log[off:end]
		if err := section(&group); err != nil {
			return err
		}
	}
	if err := section(&stackSection{Stack: snap.Stack}); err != nil {
		return err
	}

	trailer := make([]byte, 0, 4*len(sw.lens)+trailerFixed)
	for _, l := range sw.lens {
		trailer = binary.LittleEndian.AppendUint32(trailer, uint32(l))
	}
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(sw.lens)))
	trailer = binary.LittleEndian.AppendUint64(trailer, schemaHash)
	trailer = append(trailer, imageMagic...)
	if _, err := w.Write(trailer); err != nil {
		return fmt.Errorf("guest: encoding image trailer: %w", err)
	}
	if sealer, ok := w.(interface{ Seal() }); ok {
		sealer.Seal()
	}
	return nil
}

// decodeImageSections parses a sectioned image back into a Snapshot.
// Sections are decoded one at a time, each from its own bytes (a
// section that sits in one rope chunk is read in place).
func decodeImageSections(img payload.Bytes) (*Snapshot, error) {
	total := img.Len()
	if total < trailerFixed {
		return nil, fmt.Errorf("guest: image too short (%d bytes)", total)
	}
	tail := img.Slice(total-trailerFixed, total).Flatten()
	if string(tail[12:16]) != imageMagic {
		return nil, fmt.Errorf("guest: bad image magic %q", tail[12:16])
	}
	if h := binary.LittleEndian.Uint64(tail[4:12]); h != schemaHash {
		return nil, fmt.Errorf("guest: image schema %016x, this build reads %016x", h, schemaHash)
	}
	count := int(binary.LittleEndian.Uint32(tail[:4]))
	if count < 3 || count > (total-trailerFixed)/4 {
		return nil, fmt.Errorf("guest: corrupt image trailer (%d sections in %d bytes)", count, total)
	}
	trailerLen := trailerFixed + 4*count
	lenBytes := img.Slice(total-trailerLen, total-trailerFixed).Flatten()
	offs := make([]int, count+1)
	for i := 0; i < count; i++ {
		offs[i+1] = offs[i] + int(binary.LittleEndian.Uint32(lenBytes[4*i:]))
	}
	if offs[count] != total-trailerLen {
		return nil, fmt.Errorf("guest: image sections cover %d bytes, want %d", offs[count], total-trailerLen)
	}
	dec := func(i int, v any) error {
		if err := imgcodec.Decode(img.Slice(offs[i], offs[i+1]).Flatten(), v); err != nil {
			return fmt.Errorf("guest: decoding image section %d: %w", i, err)
		}
		return nil
	}

	var meta imageMeta
	if err := dec(0, &meta); err != nil {
		return nil, err
	}
	if meta.NumProcs < 0 || meta.NumProcs > count || meta.NumLog < 0 || meta.NumLog > count*logGroupSize {
		return nil, fmt.Errorf("guest: image header claims %d processes and %d log entries in %d sections", meta.NumProcs, meta.NumLog, count)
	}
	numGroups := (meta.NumLog + logGroupSize - 1) / logGroupSize
	if count != 3+meta.NumProcs+numGroups {
		return nil, fmt.Errorf("guest: image has %d sections, want %d", count, 3+meta.NumProcs+numGroups)
	}
	snap := &Snapshot{
		NextPID:   meta.NextPID,
		NextFD:    meta.NextFD,
		Listens:   meta.Listens,
		Jiffies:   meta.Jiffies,
		WD:        meta.WD,
		WDLeft:    meta.WDLeft,
		WDTimeout: meta.WDTimeout,
		CPUFactor: meta.CPUFactor,
	}
	idx := 1
	for p := 0; p < meta.NumProcs; p++ {
		var ps ProcSnapshot
		if err := dec(idx, &ps); err != nil {
			return nil, err
		}
		// Restore rebuilds the process table in image order, which
		// must therefore be PID order (Snapshot writes it so).
		if p > 0 && ps.PID <= snap.Procs[p-1].PID {
			return nil, fmt.Errorf("guest: image process %d out of PID order", ps.PID)
		}
		snap.Procs = append(snap.Procs, ps)
		idx++
	}
	var fd fdTable
	if err := dec(idx, &fd); err != nil {
		return nil, err
	}
	idx++
	// Empty maps stay nil, as the codec decodes every empty map.
	if len(fd.FDs) > 0 {
		snap.FDs = make(map[int]tcp.ConnKey, len(fd.FDs))
		for _, e := range fd.FDs {
			snap.FDs[e.FD] = e.Key
		}
	}
	if len(fd.Accepts) > 0 {
		snap.Accepts = make(map[uint16][]tcp.ConnKey, len(fd.Accepts))
		for _, e := range fd.Accepts {
			snap.Accepts[e.Port] = e.Keys
		}
	}
	for g := 0; g < numGroups; g++ {
		var group []LogEntry
		if err := dec(idx, &group); err != nil {
			return nil, err
		}
		snap.Log = append(snap.Log, group...)
		idx++
	}
	if len(snap.Log) != meta.NumLog {
		return nil, fmt.Errorf("guest: image log has %d entries, header says %d", len(snap.Log), meta.NumLog)
	}
	var ss stackSection
	if err := dec(idx, &ss); err != nil {
		return nil, err
	}
	snap.Stack = ss.Stack
	return snap, nil
}

// buildFDTable flattens the snapshot's maps into key-sorted slices.
func buildFDTable(snap *Snapshot) fdTable {
	var fd fdTable
	if len(snap.FDs) > 0 {
		fds := make([]fdEntry, 0, len(snap.FDs))
		for k, v := range snap.FDs {
			fds = append(fds, fdEntry{FD: k, Key: v})
		}
		sort.Slice(fds, func(i, j int) bool { return fds[i].FD < fds[j].FD })
		fd.FDs = fds
	}
	if len(snap.Accepts) > 0 {
		accepts := make([]acceptEntry, 0, len(snap.Accepts))
		for k, v := range snap.Accepts {
			accepts = append(accepts, acceptEntry{Port: k, Keys: v})
		}
		sort.Slice(accepts, func(i, j int) bool { return accepts[i].Port < accepts[j].Port })
		fd.Accepts = accepts
	}
	return fd
}
