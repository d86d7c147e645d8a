package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// These tests replay LSC checkpoints run directly on a bed: the same
// seed twice must give identical event digests and identical image
// bytes. E2's own replay, pool-size and trace checks are in
// e2runs_test.go.

// lscEventDigest runs one LSC checkpoint trial directly on a bed and
// hashes the event-level trace evidence: how many kernel events fired,
// the final virtual clock, the checkpoint's timing metrics, and the
// decoded content of every captured image.
//
// Image payload *bytes* and encoded *lengths* are deliberately not
// hashed: nothing in the simulation consumes them (transfer time uses the
// modelled sizes, RAMBytes / PayloadBytes, and restore decodes the
// content), and the image format may change without changing a run. So
// this digest judges what the kernel and the restored guest can observe:
// decode each image and hash the guest state it carries.
// TestSeedReplayImageBytes covers the bytes themselves.
func lscEventDigest(t *testing.T, seed int64) string {
	t.Helper()
	const nodes = 8
	b := newBed(seed, map[string]int{"alpha": nodes}, core.DefaultNTPLSC(), true)
	vc := b.allocate("replay", nodes, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(600, 20*sim.Millisecond, 4096) })
	b.Kernel.RunFor(2 * sim.Second)
	res, _ := b.Checkpoint(vc, 10*sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("reference checkpoint failed: %+v", res)
	}
	if err := core.InspectImages(res.Images); err != nil {
		t.Fatalf("image consistency: %v", err)
	}
	js := b.RunUntilJobDone(vc, 4*sim.Hour)
	if !js.AllOK() {
		t.Fatalf("reference job failed: %+v", js)
	}

	h := sha256.New()
	fmt.Fprintf(h, "fired=%d now=%d pending=%d\n", b.Kernel.Fired(), b.Kernel.Now(), b.Kernel.Pending())
	fmt.Fprintf(h, "gen=%d attempts=%d skew=%d store=%d downtime=%d finished=%d\n",
		res.Generation, res.Attempts, res.SaveSkew, res.StoreTime, res.Downtime, res.FinishedAt)
	for _, img := range res.Images {
		fmt.Fprintf(h, "img domain=%s addr=%v ram=%d incremental=%v captured=%d\n",
			img.DomainName, img.Addr, img.RAMBytes, img.Delta, img.CapturedAt)
		snap, err := guest.DecodeImagePayload(img.Data)
		if err != nil {
			t.Fatalf("decoding image for %s: %v", img.DomainName, err)
		}
		fmt.Fprintf(h, "  guest nextpid=%d nextfd=%d jiffies=%d fds=%d listens=%v log=%d\n",
			snap.NextPID, 3+len(snap.FDs), snap.Jiffies, len(snap.FDs), snap.Listens, len(snap.Log))
		procs := append([]guest.ProcSnapshot(nil), snap.Procs...)
		sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
		for _, p := range procs {
			fmt.Fprintf(h, "  proc pid=%d exited=%v code=%d timer=%d\n",
				p.PID, p.Exited, p.ExitCode, p.TimerLeft)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeedReplayEventDigest: same seed, twice, identical kernel-level
// event digests; a different seed must (overwhelmingly) diverge, proving
// the digest actually observes the run.
func TestSeedReplayEventDigest(t *testing.T) {
	const seed = refSeed
	first := lscEventDigest(t, seed)
	second := lscEventDigest(t, seed)
	if first != second {
		t.Fatalf("event digest diverged between two runs with seed %d:\n  run 1: %s\n  run 2: %s",
			seed, first, second)
	}
	if other := lscEventDigest(t, seed+1); other == first {
		t.Fatalf("event digest for seed %d equals seed %d: digest is not sensitive to the run", seed, seed+1)
	}
}

// lscImageBytesDigest checkpoints an HPL job once and hashes the raw
// bytes of every captured image. It also returns the largest HPL.Rows
// map it decoded: map order is what could make equal state encode to
// different bytes, so the test must capture a map with several entries.
func lscImageBytesDigest(t *testing.T, seed int64) (string, int) {
	t.Helper()
	const nodes = 4
	b := newBed(seed, map[string]int{"alpha": nodes}, core.DefaultNTPLSC(), true)
	vc := b.allocate("imgbytes", nodes, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHPL(64, 42, 5.7e-6) })
	b.Kernel.RunFor(2 * sim.Second)
	res, _ := b.Checkpoint(vc, 10*sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("HPL checkpoint failed: %+v", res)
	}
	h := sha256.New()
	rows := 0
	for _, img := range res.Images {
		fmt.Fprintf(h, "img %s %d\n", img.DomainName, img.Data.Len())
		for k, n := 0, img.Data.NumChunks(); k < n; k++ {
			h.Write(img.Data.Chunk(k))
		}
		snap, err := guest.DecodeImagePayload(img.Data)
		if err != nil {
			t.Fatalf("decoding image for %s: %v", img.DomainName, err)
		}
		for _, p := range snap.Procs {
			if d, ok := p.Prog.(*mpi.Driver); ok {
				if hpl, ok := d.App.(*hpcc.HPL); ok && len(hpl.Rows) > rows {
					rows = len(hpl.Rows)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), rows
}

// TestSeedReplayImageBytes: same seed, twice, byte-identical image
// payloads. The image codec orders map entries by key and writes no
// process-global type ids, so the encoded bytes — not just the decoded
// content lscEventDigest hashes — are a pure function of guest state.
func TestSeedReplayImageBytes(t *testing.T) {
	first, rows := lscImageBytesDigest(t, refSeed)
	if rows < 2 {
		t.Fatalf("largest captured HPL.Rows map has %d entries; the test needs a map whose order could vary", rows)
	}
	if second, _ := lscImageBytesDigest(t, refSeed); second != first {
		t.Fatalf("image bytes diverged between two runs with seed %d:\n  run 1: %s\n  run 2: %s", refSeed, first, second)
	}
}

// Pinned baseline digests for seed 20070917, recorded before the
// zero-copy data-plane rewrite (chunked payload ropes, ring-buffered TCP
// queues, streaming image encode). The rewrite is required to preserve
// observable behaviour exactly — same segment boundaries, same event
// ordering, same serialized tables and traces, and the same decoded
// image content — so all three digests must match the pre-rewrite
// values bit for bit. (The LSC digest judges images by decoded content,
// not encoded bytes or lengths; see lscEventDigest.)
// If a future change moves one of these, it changed
// simulation-visible behaviour and the new value must be justified and
// re-pinned here (cf. the queue_depth note for the PR 4 event path).
// The trace digest was re-pinned once since, when the kernel probe was
// deleted: the new trace is the old one with every sim.probe record
// removed and seq/span renumbered, byte for byte.
// TestSeedReplayMetricsDigest and TestSeedReplayTraceDigest check the
// two E2 digests on run A.
const (
	pinnedE2MetricsDigest = "118959d6fd036deb649a5640544155fe10f84c339189c9c36a119f39b3e5086d"
	pinnedE2TraceDigest   = "b43271bc564e35c49375031200a008cdb6471832c5a514a2d06085b55b242987"
	pinnedLSCEventDigest  = "83070258c20fbfcba8993713719d015a5de36b9030aea1d13005322c99ba73ff"
)

// TestSeedReplayDigestsMatchPinnedBaseline: the LSC event digest is not
// merely self-consistent across two runs — it equals the recorded
// pre-rewrite baseline, proving the data-plane rewrite is
// behaviour-preserving.
func TestSeedReplayDigestsMatchPinnedBaseline(t *testing.T) {
	if got := lscEventDigest(t, refSeed); got != pinnedLSCEventDigest {
		t.Errorf("LSC event digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedLSCEventDigest)
	}
}
