package fleet

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := Map(workers, 20, func(i int) int { return i * i })
		if len(got) != 20 {
			t.Fatalf("workers=%d: len=%d, want 20", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: out[%d]=%d, want %d (results must be indexed by trial)", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(4, 0, func(i int) int { t.Fatal("fn called for n=0"); return 0 })
	if len(got) != 0 {
		t.Fatalf("n=0: len=%d", len(got))
	}
}

func TestMapEveryTrialRunsExactlyOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	Map(8, n, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("trial %d ran %d times, want 1", i, c)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	Map(workers, 50, func(i int) struct{} {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent trials, pool is bounded at %d", p, workers)
	}
}

func TestMapSerialPathSpawnsNothing(t *testing.T) {
	// workers == 1 must run inline: trial order is strictly 0..n-1 on the
	// calling goroutine, observable as a strictly increasing sequence
	// without any synchronisation.
	var seen []int
	Map(1, 10, func(i int) struct{} {
		seen = append(seen, i)
		return struct{}{}
	})
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial path ran out of order: %v", seen)
		}
	}
}

func TestMapPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		p, ok := r.(*trialPanic)
		if !ok {
			t.Fatalf("re-panic value is %T, want *trialPanic", r)
		}
		if p.trial != 3 {
			t.Errorf("propagated trial %d, want the lowest panicking index 3", p.trial)
		}
		if !strings.Contains(p.Error(), "boom-3") {
			t.Errorf("panic lost its payload: %s", p.Error())
		}
	}()
	Map(4, 16, func(i int) int {
		if i >= 3 && i%2 == 1 { // several trials panic; index 3 is lowest
			panic("boom-" + string(rune('0'+i%10)))
		}
		return i
	})
}

func TestMapPanicSerialPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("serial-path panic was swallowed")
		}
	}()
	Map(1, 4, func(i int) int {
		if i == 2 {
			panic("serial boom")
		}
		return i
	})
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
