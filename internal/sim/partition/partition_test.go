package partition_test

import (
	"fmt"
	"reflect"
	"testing"

	"dvc/internal/sim"
	"dvc/internal/sim/partition"
)

// hit is one observed cross-partition delivery.
type hit struct {
	Part  int
	At    sim.Time
	Round int
}

// runPingPong drives `rounds` message round-trips between two partitions
// with the given lookahead and link latency, returning each partition's
// delivery log and the coordinator stats. The drivers build their whole
// world inside themselves (the fleetscope contract).
func runPingPong(workers, rounds int, lookahead, latency sim.Time) ([][]hit, partition.Stats) {
	c := partition.NewCoordinator(partition.Config{Lookahead: lookahead, Workers: workers}, 2)
	logs := make([][]hit, 2)
	kernels := make([]*sim.Kernel, 2) // each written and read by its partition's own driver
	var bounce [2]func(p *partition.Partition, round int)
	parts := c.Partitions()
	for i := range bounce {
		i := i
		bounce[i] = func(p *partition.Partition, round int) {
			logs[i] = append(logs[i], hit{Part: i, At: kernels[i].Now(), Round: round})
			if round < rounds {
				dst := 1 - i
				p.Send(dst, kernels[i].Now()+latency, wrap(parts[dst], &bounce[dst], round+1))
			}
		}
	}
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(int64(p.ID()) + 7)
		p.Bind(k)
		kernels[p.ID()] = k
		if p.ID() == 0 {
			k.At(1, func() {
				p.Send(1, k.Now()+latency, wrap(parts[1], &bounce[1], 1))
			})
		}
		k.Run()
	})
	return logs, c.Stats()
}

// wrap defers the handler lookup to execution time on the destination's
// goroutine (the handler pointer is written by the destination itself).
func wrap(dst *partition.Partition, h *func(p *partition.Partition, round int), round int) func() {
	return func() { (*h)(dst, round) }
}

// TestPingPongDeterministic: the delivery schedule is a pure function of
// virtual time — identical logs at every worker count.
func TestPingPongDeterministic(t *testing.T) {
	const rounds = 50
	lat := 350 * sim.Microsecond
	var base [][]hit
	for _, workers := range []int{1, 2, 0} {
		logs, stats := runPingPong(workers, rounds, lat, lat)
		if workers == 1 {
			base = logs
		} else if !reflect.DeepEqual(base, logs) {
			t.Fatalf("workers=%d delivery log diverged from workers=1:\n%v\nvs\n%v", workers, base, logs)
		}
		if got := int(stats.Forwarded); got != rounds {
			t.Fatalf("workers=%d forwarded %d messages, want %d", workers, got, rounds)
		}
		if stats.Barriers == 0 {
			t.Fatalf("workers=%d ran with zero barriers", workers)
		}
	}
	// The message at round r lands at 1 + r*latency on alternating sides.
	if len(base[1]) == 0 || base[1][0].At != 1+lat {
		t.Fatalf("first delivery = %+v, want time %v on partition 1", base[1], 1+lat)
	}
}

// TestLowLookaheadNoDeadlock: a lookahead of a single nanosecond — the
// window is one event wide, the WAN-only worst case — must still make
// progress and produce the identical schedule, just with more barriers.
func TestLowLookaheadNoDeadlock(t *testing.T) {
	const rounds = 25
	lat := 2500 * sim.Microsecond
	wide, _ := runPingPong(1, rounds, lat, lat)
	narrow, stats := runPingPong(2, rounds, sim.Nanosecond, lat)
	if !reflect.DeepEqual(wide, narrow) {
		t.Fatalf("1ns-lookahead schedule diverged from full-lookahead schedule")
	}
	if stats.Barriers <= uint64(rounds) {
		t.Fatalf("expected more barriers than rounds under a one-event window, got %d", stats.Barriers)
	}
}

// TestInjectionOrderDeterministic: simultaneous arrivals are injected by
// (arrival, source partition id, per-source sequence) — never goroutine
// arrival order.
func TestInjectionOrderDeterministic(t *testing.T) {
	const L = 100
	run := func(workers int) []string {
		c := partition.NewCoordinator(partition.Config{Lookahead: L, Workers: workers}, 3)
		var got []string
		note := func(tag string) func() {
			return func() { got = append(got, tag) }
		}
		c.Run(func(p *partition.Partition) {
			k := sim.NewKernel(int64(p.ID()))
			p.Bind(k)
			switch p.ID() {
			case 0:
				k.At(1, func() {
					p.Send(2, 1000, note("a/seq0@1000"))
					p.Send(2, 1000, note("a/seq1@1000"))
				})
			case 1:
				k.At(1, func() {
					p.Send(2, 1000, note("b/seq0@1000"))
					p.Send(2, 999, note("b/seq1@999"))
				})
			}
			k.Run()
		})
		return got
	}
	want := []string{"b/seq1@999", "a/seq0@1000", "a/seq1@1000", "b/seq0@1000"}
	for _, workers := range []int{1, 3} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d injection order = %v, want %v", workers, got, want)
		}
	}
}

// TestDeadlineJumpAcrossPartitions: a partition parked on a RunUntil
// deadline still receives messages injected below it, and its clock
// lands exactly on the deadline afterwards.
func TestDeadlineJumpAcrossPartitions(t *testing.T) {
	const L = 50
	c := partition.NewCoordinator(partition.Config{Lookahead: L}, 2)
	var (
		seen  []sim.Time
		atEnd sim.Time
	)
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(int64(p.ID()))
		p.Bind(k)
		switch p.ID() {
		case 0:
			k.RunUntil(10_000)
			atEnd = k.Now()
		case 1:
			k.At(1, func() {
				now := k.Now()
				p.Send(0, now+L, func() { seen = append(seen, now+L) })
			})
			k.Run()
		}
	})
	if len(seen) != 1 || seen[0] != 1+L {
		t.Fatalf("parked partition saw %v, want one delivery at %d", seen, 1+L)
	}
	if atEnd != 10_000 {
		t.Fatalf("parked partition ended at %v, want 10000", atEnd)
	}
}

// TestSendUnderLookaheadPanics: staging a message closer than the
// lookahead window is the one way to corrupt the conservative protocol,
// so it must refuse loudly.
func TestSendUnderLookaheadPanics(t *testing.T) {
	c := partition.NewCoordinator(partition.Config{Lookahead: 100}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from an under-lookahead Send")
		}
	}()
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(0)
		p.Bind(k)
		if p.ID() == 0 {
			k.At(1, func() { p.Send(1, 50, func() {}) }) // 50 < now+L
		}
		k.Run()
	})
}

// TestDriverPanicPropagates: a panicking driver neither deadlocks the
// surviving partitions nor swallows the panic; messages to the dead
// partition are dropped and counted.
func TestDriverPanicPropagates(t *testing.T) {
	c := partition.NewCoordinator(partition.Config{Lookahead: 100}, 2)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		c.Run(func(p *partition.Partition) {
			k := sim.NewKernel(0)
			p.Bind(k)
			if p.ID() == 0 {
				panic("driver zero dies")
			}
			k.At(1, func() { p.Send(0, 1000, func() {}) })
			k.Run()
		})
	}()
	if fmt.Sprint(recovered) != "driver zero dies" {
		t.Fatalf("recovered %v, want the driver's panic", recovered)
	}
	if st := c.Stats(); st.DroppedClosed != 1 {
		t.Fatalf("DroppedClosed = %d, want 1", st.DroppedClosed)
	}
}
