package clock

import (
	"testing"
	"testing/quick"

	"dvc/internal/sim"
)

func TestPerfectClockTracksTrueTime(t *testing.T) {
	k := sim.NewKernel(1)
	c := &Clock{kernel: k}
	k.RunFor(10 * sim.Second)
	if c.Read() != 10*sim.Second {
		t.Fatalf("perfect clock reads %v, want 10s", c.Read())
	}
	if c.Error() != 0 {
		t.Fatalf("perfect clock error %v, want 0", c.Error())
	}
}

func TestUnsyncedClockDrifts(t *testing.T) {
	k := sim.NewKernel(2)
	c := New(k, Config{InitialOffsetStd: 0, DriftPPMStd: 0})
	c.driftPPM = 100 // exactly 100 ppm fast
	k.RunFor(1000 * sim.Second)
	wantErr := sim.Time(1000 * sim.Second / 10000) // 100ppm of 1000s = 100ms
	if c.Error() != wantErr {
		t.Fatalf("drift error = %v, want %v", c.Error(), wantErr)
	}
}

func TestInitialOffsetIsRandomPerClock(t *testing.T) {
	k := sim.NewKernel(3)
	cfg := DefaultConfig()
	a, b := New(k, cfg), New(k, cfg)
	if a.Error() == b.Error() {
		t.Fatal("two clocks drew identical initial offsets")
	}
}

func TestNTPSyncBoundsError(t *testing.T) {
	k := sim.NewKernel(4)
	cfg := DefaultConfig()
	var clocks []*Clock
	for i := 0; i < 26; i++ {
		clocks = append(clocks, New(k, cfg))
	}
	d := NewNTPDaemon(k, DefaultNTPConfig(), clocks...)

	// Before sync: second-scale disagreement.
	before := maxPairwiseError(clocks)
	if before < 100*sim.Millisecond {
		t.Fatalf("pre-sync max pairwise error suspiciously small: %v", before)
	}

	d.Start()
	k.RunFor(10 * 64 * sim.Second)
	d.timer.Stop()

	// The poll tick is the kernel's only event.
	if k.Fired() < 10 {
		t.Fatalf("only %d syncs in 10 poll intervals", k.Fired())
	}
	// Right after the last sync plus < one poll of drift: ms-scale.
	after := maxPairwiseError(clocks)
	if after > 20*sim.Millisecond {
		t.Fatalf("post-sync max pairwise error = %v, want ms-scale", after)
	}
	if after == 0 {
		t.Fatal("post-sync error exactly zero; residual model not applied")
	}
}

func TestNTPDisciplineReducesDrift(t *testing.T) {
	k := sim.NewKernel(5)
	c := New(k, Config{InitialOffsetStd: sim.Second, DriftPPMStd: 0})
	c.driftPPM = 80
	d := NewNTPDaemon(k, NTPConfig{PollInterval: 16 * sim.Second, ResidualStd: sim.Millisecond, DisciplineFactor: 0.5}, c)
	d.Start()
	k.RunFor(20 * 16 * sim.Second)
	d.timer.Stop()
	if got := c.driftPPM; got > 1e-3 {
		t.Fatalf("drift after discipline = %v ppm, want ~0", got)
	}
}

func TestAtHostTimeFiresWhenHostClockReads(t *testing.T) {
	k := sim.NewKernel(6)
	c := New(k, Config{InitialOffsetStd: 0, DriftPPMStd: 0})
	c.offset = 100 * sim.Millisecond // host reads 100ms ahead of true
	var hostAtFire, trueAtFire sim.Time
	k.At(c.TrueTimeForHostReading(5*sim.Second), func() {
		hostAtFire = c.Read()
		trueAtFire = k.Now()
	})
	k.Run()
	if hostAtFire != 5*sim.Second {
		t.Fatalf("host clock at fire = %v, want 5s", hostAtFire)
	}
	if trueAtFire != 5*sim.Second-100*sim.Millisecond {
		t.Fatalf("true time at fire = %v, want 4.9s", trueAtFire)
	}
}

// Property: TrueTimeForHostReading inverts Read for any drift/offset within
// physical ranges.
func TestPropertyHostTimeInversion(t *testing.T) {
	f := func(offMs int16, driftPPM int8, targetSec uint16) bool {
		k := sim.NewKernel(8)
		c := &Clock{kernel: k}
		c.offset = sim.Time(offMs) * sim.Millisecond
		c.driftPPM = float64(driftPPM)
		host := sim.Time(targetSec)*sim.Second + 10*sim.Second
		trueT := c.TrueTimeForHostReading(host)
		// Reading the clock at trueT must give host within 1us (integer
		// rounding of the ppm term).
		got := trueT + c.errorAt(trueT)
		diff := got - host
		if diff < 0 {
			diff = -diff
		}
		return diff <= sim.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a sync the absolute error is bounded by ~6 residual
// standard deviations for every clock.
func TestPropertyResidualBounded(t *testing.T) {
	k := sim.NewKernel(9)
	cfg := DefaultConfig()
	ntp := DefaultNTPConfig()
	for trial := 0; trial < 200; trial++ {
		c := New(k, cfg)
		d := NewNTPDaemon(k, ntp, c)
		d.SyncNow()
		e := c.Error()
		if e < 0 {
			e = -e
		}
		if e > 6*ntp.ResidualStd {
			t.Fatalf("trial %d: residual error %v exceeds 6 sigma (%v)", trial, e, 6*ntp.ResidualStd)
		}
	}
}

func TestAddClockAfterCreation(t *testing.T) {
	k := sim.NewKernel(11)
	d := NewNTPDaemon(k, DefaultNTPConfig())
	c := New(k, DefaultConfig())
	d.Add(c)
	d.SyncNow()
	e := c.Error()
	if e < 0 {
		e = -e
	}
	if e > 20*sim.Millisecond {
		t.Fatalf("added clock not disciplined: error %v", e)
	}
}

// maxPairwiseError returns the worst host-clock disagreement between any
// two of clocks right now.
func maxPairwiseError(clocks []*Clock) sim.Time {
	lo, hi := clocks[0].Error(), clocks[0].Error()
	for _, c := range clocks[1:] {
		e := c.Error()
		lo, hi = min(lo, e), max(hi, e)
	}
	return hi - lo
}
