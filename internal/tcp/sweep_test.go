package tcp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

func TestSnapshotEquivalenceSweep(t *testing.T) {
	// A deterministic 3000-case sweep over snapshot cut points; this
	// caught the go-back-1 recovery bug the quick-check found first.
	fail := 0
	for trial := 0; trial < 3000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		seed := rng.Int63()
		cut := uint16(rng.Intn(65536))
		if !snapshotCase(seed, cut) {
			fail++
			fmt.Printf("FAIL trial=%d seed=%d cut=%d\n", trial, seed, cut)
			if fail > 5 {
				t.Fatal("enough")
			}
		}
	}
	if fail > 0 {
		t.Fatalf("%d failures", fail)
	}
}

func snapshotCase(seed int64, cutMicros uint16) bool {
	k := sim.NewKernel(seed)
	fab := netsim.NewFabric(k)
	fab.AddCluster("c", netsim.EthernetGigE())
	cfg := DefaultConfig()
	cfg.MSS = 900
	sa := NewStack(k, fab, "A", cfg)
	sb := NewStack(k, fab, "B", cfg)
	pa := fab.Attach("A", "c", sa.Deliver)
	pb := fab.Attach("B", "c", sb.Deliver)
	var cb *Conn
	sb.Listen(1, func(c *Conn) { cb = c })
	ca, _ := sa.Connect("B", 1)
	k.RunFor(sim.Second)
	msg := make([]byte, 20000)
	for i := range msg {
		msg[i] = byte(i)
	}
	ca.Write(msg)
	k.RunFor(sim.Time(cutMicros) * sim.Microsecond)
	var got []byte
	if cb != nil {
		got = append(got, cb.Read(cb.Readable())...)
	}

	sa.Freeze()
	sb.Freeze()
	pa.SetUp(false)
	pb.SetUp(false)
	snapA, snapB := sa.Snapshot(), sb.Snapshot()
	pa.Detach()
	pb.Detach()
	k.RunFor(sim.Minute)
	sa2 := RestoreStack(k, fab, snapA)
	sb2 := RestoreStack(k, fab, snapB)
	fab.Attach("A", "c", sa2.Deliver)
	fab.Attach("B", "c", sb2.Deliver)
	sa2.Thaw()
	sb2.Thaw()
	cb2 := sb2.Conns()[0]
	deadline := k.Now() + 10*sim.Minute
	for len(got) < len(msg) && k.Now() < deadline {
		k.RunFor(sim.Second)
		got = append(got, cb2.Read(cb2.Readable())...)
	}
	return bytes.Equal(got, msg)
}
