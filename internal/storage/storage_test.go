package storage

import (
	"testing"

	"dvc/internal/sim"
	"dvc/internal/vm"
)

func img(name string, size int64) *vm.Image {
	return &vm.Image{DomainName: name, Addr: "x", RAMBytes: size}
}

func newStore(k *sim.Kernel, bw, cap float64) *Store {
	return New(k, Config{Bandwidth: bw, PerTransferCap: cap, BaseLatency: sim.Millisecond})
}

func TestSingleWriteTiming(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 100e6, 0)
	var doneAt sim.Time
	s.Write("a", img("a", 100_000_000), func() { doneAt = k.Now() })
	k.Run()
	// 100MB at 100MB/s = 1s + 1ms latency.
	want := sim.Second + sim.Millisecond
	if doneAt != want {
		t.Fatalf("write done at %v, want %v", doneAt, want)
	}
	if s.objects["a"] == nil {
		t.Fatal("object missing after write")
	}
}

func TestPerTransferCap(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 50e6)
	var doneAt sim.Time
	s.Write("a", img("a", 100_000_000), func() { doneAt = k.Now() })
	k.Run()
	// Capped at 50MB/s: 2s.
	want := 2*sim.Second + sim.Millisecond
	if doneAt != want {
		t.Fatalf("capped write done at %v, want %v", doneAt, want)
	}
}

func TestFairSharing(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 100e6, 0)
	var t1, t2 sim.Time
	s.Write("a", img("a", 100_000_000), func() { t1 = k.Now() })
	s.Write("b", img("b", 100_000_000), func() { t2 = k.Now() })
	k.Run()
	// Two equal transfers sharing 100MB/s: both finish ~2s.
	if t1 < 1900*sim.Millisecond || t1 > 2100*sim.Millisecond {
		t.Fatalf("first shared write at %v, want ~2s", t1)
	}
	if t2 < 1900*sim.Millisecond || t2 > 2100*sim.Millisecond {
		t.Fatalf("second shared write at %v, want ~2s", t2)
	}
}

func TestShortTransferFreesBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 100e6, 0)
	var tBig sim.Time
	s.Write("big", img("big", 100_000_000), func() { tBig = k.Now() })
	s.Write("small", img("small", 10_000_000), nil)
	k.Run()
	// small: shares 50MB/s, finishes at 0.2s having consumed 10MB.
	// big: 10MB done at 0.2s, remaining 90MB at 100MB/s -> 1.1s total.
	if tBig < 1050*sim.Millisecond || tBig > 1150*sim.Millisecond {
		t.Fatalf("big write at %v, want ~1.1s", tBig)
	}
}

func TestReadRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 100e6, 0)
	s.Write("ckpt/vm0", img("vm0", 50_000_000), nil)
	k.Run()
	var got *vm.Image
	var gotErr error
	start := k.Now()
	s.Read("ckpt/vm0", func(i *vm.Image, err error) { got, gotErr = i, err })
	k.Run()
	if gotErr != nil || got == nil || got.DomainName != "vm0" {
		t.Fatalf("read: img=%v err=%v", got, gotErr)
	}
	if elapsed := k.Now() - start; elapsed < 500*sim.Millisecond {
		t.Fatalf("read charged only %v for 50MB", elapsed)
	}
}

func TestReadMissingKeyErrors(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 100e6, 0)
	var gotErr error
	called := false
	s.Read("nope", func(i *vm.Image, err error) { called, gotErr = true, err })
	k.Run()
	if !called || gotErr == nil {
		t.Fatal("missing key should error via callback")
	}
}

func TestOverwriteReplaces(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	s.Write("key", img("gen1", 1000), nil)
	k.Run()
	s.Write("key", img("gen2", 2000), nil)
	k.Run()
	o, ok := s.objects["key"]
	if !ok || o.Image.DomainName != "gen2" || o.Size != 2000 {
		t.Fatalf("overwrite failed: %+v", o)
	}
}

func TestKeysPrefix(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	for _, key := range []string{"job1/vm0", "job1/vm1", "job2/vm0"} {
		s.Write(key, img(key, 10), nil)
	}
	k.Run()
	got := s.Keys("job1/")
	if len(got) != 2 || got[0] != "job1/vm0" || got[1] != "job1/vm1" {
		t.Fatalf("Keys(job1/) = %v", got)
	}
	if len(s.Keys("")) != 3 {
		t.Fatal("Keys(\"\") should list all")
	}
}

func TestDeleteAndTotal(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	s.Write("a", img("a", 100), nil)
	s.Write("b", img("b", 200), nil)
	k.Run()
	if s.TotalBytes() != 300 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	s.Delete("a")
	if s.objects["a"] != nil || s.TotalBytes() != 200 {
		t.Fatal("delete failed")
	}
}

func TestManyConcurrentTransfersAllComplete(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 200e6, 80e6)
	done := 0
	const n = 26
	for i := 0; i < n; i++ {
		s.Write(string(rune('a'+i)), img("vm", 1<<30), func() { done++ })
	}
	k.Run()
	if done != n {
		t.Fatalf("%d of %d transfers completed", done, n)
	}
	// 26 GiB at 200MB/s aggregate ≈ 140s.
	if k.Now() < 130*sim.Second || k.Now() > 150*sim.Second {
		t.Fatalf("26-way save took %v, want ~140s", k.Now())
	}
	if s.Writes != n || s.BytesWritten != n<<30 {
		t.Fatalf("stats: writes=%d bytes=%d", s.Writes, s.BytesWritten)
	}
}
