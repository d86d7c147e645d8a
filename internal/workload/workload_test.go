package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dvc/internal/sim"
)

func TestGenerateRespectsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := MixConfig{
		Count:       50,
		ArrivalMean: 30 * sim.Second,
		Widths:      []int{1, 2, 4},
		WorkMin:     sim.Minute,
		WorkMax:     5 * sim.Minute,
	}
	jobs := Generate(rng, cfg)
	if len(jobs) != 50 {
		t.Fatalf("count %d", len(jobs))
	}
	var prev sim.Time = -1
	seen := map[int]bool{}
	for i, j := range jobs {
		if j.Arrival < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = j.Arrival
		if j.Work < cfg.WorkMin || j.Work >= cfg.WorkMax {
			t.Fatalf("work %v out of range", j.Work)
		}
		seen[j.Width] = true
		ok := false
		for _, w := range cfg.Widths {
			if j.Width == w {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("width %d not in choices", j.Width)
		}
		if j.ID == "" {
			t.Fatal("empty job id")
		}
	}
	if len(seen) < 2 {
		t.Fatal("width distribution degenerate")
	}
}

func TestWidthWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := MixConfig{
		Count:        2000,
		ArrivalMean:  sim.Second,
		Widths:       []int{1, 8},
		WidthWeights: []float64{9, 1},
		WorkMin:      sim.Minute,
		WorkMax:      2 * sim.Minute,
	}
	jobs := Generate(rng, cfg)
	narrow := 0
	for _, j := range jobs {
		if j.Width == 1 {
			narrow++
		}
	}
	if narrow < 1600 || narrow > 1980 {
		t.Fatalf("weighted draw: %d/2000 narrow, want ~1800", narrow)
	}
}

func TestBSPAppSliceCount(t *testing.T) {
	a := NewBSPApp(95 * sim.Second)
	if a.Slices != 9 {
		t.Fatalf("95s of work at 10s slices = %d slices, want 9", a.Slices)
	}
	tiny := NewBSPApp(sim.Second)
	if tiny.Slices != 1 {
		t.Fatal("minimum one slice")
	}
}

// Property: generation is deterministic for a seed.
func TestPropertyGenerateDeterministic(t *testing.T) {
	f := func(seed int64, countRaw uint8) bool {
		count := int(countRaw%20) + 1
		cfg := MixConfig{
			Count:       count,
			ArrivalMean: 30 * sim.Second,
			Widths:      []int{1, 2, 4, 8},
			WorkMin:     sim.Minute,
			WorkMax:     10 * sim.Minute,
		}
		a := Generate(rand.New(rand.NewSource(seed)), cfg)
		b := Generate(rand.New(rand.NewSource(seed)), cfg)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
