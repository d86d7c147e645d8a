package tcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

// TestPropertyEventualDeliveryUnderLoss: for any loss rate up to 20% and
// any payload, the stream arrives intact and in order, exactly once.
func TestPropertyEventualDeliveryUnderLoss(t *testing.T) {
	f := func(seed int64, lossPct uint8, sizeRaw uint16) bool {
		loss := float64(lossPct%21) / 100 // 0..20%
		size := int(sizeRaw)%30000 + 1
		k := sim.NewKernel(seed)
		fab := netsim.NewFabric(k)
		fab.AddCluster("c", netsim.LinkProfile{
			Latency:   55 * sim.Microsecond,
			Bandwidth: 117e6,
			LossProb:  loss,
		})
		cfg := DefaultConfig()
		cfg.MSS = 1000
		cfg.SendWindow = 4000
		// Generous retries: heavy loss must delay, never corrupt.
		cfg.MaxRetries = 30
		sa := NewStack(k, fab, "A", cfg)
		sb := NewStack(k, fab, "B", cfg)
		fab.Attach("A", "c", sa.Deliver)
		fab.Attach("B", "c", sb.Deliver)
		var cb *Conn
		sb.Listen(1, func(c *Conn) { cb = c })
		ca, _ := sa.Connect("B", 1)
		k.RunFor(time2(30))
		if ca.State() != StateEstablished || cb == nil {
			return loss > 0.15 // heavy loss may legitimately stall the handshake budget
		}
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		ca.Write(msg)
		var got []byte
		deadline := k.Now() + 10*sim.Minute
		for len(got) < size && k.Now() < deadline {
			k.RunFor(sim.Second)
			got = append(got, cb.Read(cb.Readable())...)
		}
		return bytes.Equal(got, msg) && cb.Readable() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func time2(s int) sim.Time { return sim.Time(s) * sim.Second }

// TestPropertyFreezeAnywhereIsSafe: freezing and thawing both endpoints
// at an arbitrary instant mid-transfer never corrupts or duplicates the
// stream — the LSC core property, for random cut points.
func TestPropertyFreezeAnywhereIsSafe(t *testing.T) {
	f := func(seed int64, cutMicros uint16, pause uint8) bool {
		k := sim.NewKernel(seed)
		fab := netsim.NewFabric(k)
		fab.AddCluster("c", netsim.EthernetGigE())
		cfg := DefaultConfig()
		cfg.MSS = 1200
		cfg.SendWindow = 6000
		sa := NewStack(k, fab, "A", cfg)
		sb := NewStack(k, fab, "B", cfg)
		pa := fab.Attach("A", "c", sa.Deliver)
		pb := fab.Attach("B", "c", sb.Deliver)
		var cb *Conn
		sb.Listen(1, func(c *Conn) { cb = c })
		ca, _ := sa.Connect("B", 1)
		k.RunFor(sim.Second)

		msg := make([]byte, 40000)
		for i := range msg {
			msg[i] = byte(i * 13)
		}
		ca.Write(msg)
		var got []byte
		drainB := func() {
			if cb != nil {
				got = append(got, cb.Read(cb.Readable())...)
			}
		}
		// Cut at a random instant inside the transfer window.
		k.RunFor(sim.Time(cutMicros) * sim.Microsecond)
		drainB()
		sa.Freeze()
		sb.Freeze()
		pa.SetUp(false)
		pb.SetUp(false)
		// Pause 0..255 seconds: far beyond any timer, none may fire.
		k.RunFor(sim.Time(pause) * sim.Second)
		pa.SetUp(true)
		pb.SetUp(true)
		sa.Thaw()
		sb.Thaw()

		deadline := k.Now() + 10*sim.Minute
		for len(got) < len(msg) && k.Now() < deadline {
			k.RunFor(sim.Second)
			drainB()
		}
		return bytes.Equal(got, msg) &&
			ca.State() == StateEstablished && cb.State() == StateEstablished
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySnapshotRoundTripEquivalence: snapshotting and restoring a
// frozen stack yields identical behaviour to thawing the original — the
// stream completes intact either way.
func TestPropertySnapshotRoundTripEquivalence(t *testing.T) {
	f := func(seed int64, cutMicros uint16) bool {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
