package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, d := range []Time{5 * Second, Second, 3 * Second, 2 * Second} {
		d := d
		k.At(d, func() { got = append(got, d) })
	}
	k.Run()
	want := []Time{Second, 2 * Second, 3 * Second, 5 * Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesBreakInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order %v, want ascending schedule order", got)
		}
	}
}

func TestNowAdvancesToEventTime(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(7*Second, func() { at = k.Now() })
	k.Run()
	if at != 7*Second {
		t.Fatalf("Now() inside event = %v, want 7s", at)
	}
	if k.Now() != 7*Second {
		t.Fatalf("Now() after run = %v, want 7s", k.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := NewKernel(1)
	var second Time
	k.At(Second, func() {
		k.After(2*Second, func() { second = k.Now() })
	})
	k.Run()
	if second != 3*Second {
		t.Fatalf("chained After fired at %v, want 3s", second)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(Second, func() {
		k.After(-5*Second, func() { fired = k.Now() == Second })
	})
	k.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire at current time")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(5*Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		k.At(Second, func() {})
	})
	k.Run()
}

func TestHaltStopsRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i)*Second, func() {
			count++
			if count == 3 {
				k.Halt()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Halt, want 3", count)
	}
	if !k.halted {
		t.Fatal("halted = false after Halt")
	}
	// A fresh Run resumes.
	k.Run()
	if count != 10 {
		t.Fatalf("resume ran to %d events, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * Second
		k.At(d, func() { fired = append(fired, d) })
	}
	n := k.RunUntil(3 * Second)
	if n != 3 {
		t.Fatalf("RunUntil executed %d events, want 3", n)
	}
	if k.Now() != 3*Second {
		t.Fatalf("Now() = %v after RunUntil(3s)", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", k.Pending())
	}
	// Deadline with no events advances time to the deadline.
	k2 := NewKernel(1)
	k2.RunUntil(10 * Second)
	if k2.Now() != 10*Second {
		t.Fatalf("empty RunUntil left Now() = %v", k2.Now())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(2 * Second)
	k.RunFor(3 * Second)
	if k.Now() != 5*Second {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		k := NewKernel(seed)
		var out []int64
		var step func()
		n := 0
		step = func() {
			out = append(out, int64(k.Now()), k.Rand().Int63())
			n++
			if n < 100 {
				k.After(Exp(k.Rand(), 10*Millisecond), step)
			}
		}
		k.After(0, step)
		k.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(1500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("Duration conversion mismatch")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds() mismatch")
	}
	if (90 * Second).String() != "1m30s" {
		t.Fatalf("String() = %q", (90 * Second).String())
	}
}

// Property: for any batch of delays, events fire in sorted order and the
// kernel clock is monotonic.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(7)
		var fired []Time
		last := Time(-1)
		mono := true
		for _, d := range delays {
			k.At(Time(d), func() {
				if k.Now() < last {
					mono = false
				}
				last = k.Now()
				fired = append(fired, k.Now())
			})
		}
		k.Run()
		if !mono || len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 20000

	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(Exp(rng, 10*Millisecond))
	}
	mean := sum / n
	if mean < 9e6 || mean > 11e6 {
		t.Errorf("Exp mean = %.0f ns, want ~1e7", mean)
	}

	neg := 0
	for i := 0; i < n; i++ {
		if NormalSigned(rng, 0, Millisecond) < 0 {
			neg++
		}
	}
	if neg < n/3 || neg > 2*n/3 {
		t.Errorf("NormalSigned(0,1ms) negative fraction = %d/%d, want ~half", neg, n)
	}

	// LogNormal median should be near the requested median.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(LogNormal(rng, 100*Millisecond, 0.5))
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if med < 9e7 || med > 11e7 {
		t.Errorf("LogNormal median = %.0f ns, want ~1e8", med)
	}

	for i := 0; i < 1000; i++ {
		v := Uniform(rng, Second, 2*Second)
		if v < Second || v >= 2*Second {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	if Uniform(rng, Second, Second) != Second {
		t.Error("Uniform with empty range should return lo")
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.At(Time(i), func() {})
	}
	tm := NewTimer(k, func() {})
	tm.Reset(10)
	tm.Stop()
	if n := k.Run(); n != 5 {
		t.Fatalf("Run returned %d, want 5", n)
	}
	if k.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (stopped timers must not count)", k.Fired())
	}
}
