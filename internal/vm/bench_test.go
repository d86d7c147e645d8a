package vm

import (
	"fmt"
	"testing"

	"dvc/internal/clock"
	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&ballastProg{})
}

// ballastProg is a guest program whose only job is to give the VM image a
// realistic functional payload: Buf models application state (for HPL,
// the matrix panels) that a whole-VM checkpoint must serialise.
type ballastProg struct {
	Buf []byte
	I   int
}

func (p *ballastProg) Next(api *guest.API, res guest.Result) guest.Op {
	p.I++
	return &guest.ComputeOp{Duration: sim.Second}
}

// benchCluster boots doms domains, each holding stateBytes of guest
// state, runs them briefly, and pauses them all (the LSC save point).
func benchCluster(tb testing.TB, doms, stateBytes int) []*Domain {
	k := sim.NewKernel(11)
	f := netsim.NewFabric(k)
	f.AddCluster("alpha", netsim.EthernetGigE())
	site := phys.NewSite(k, clock.DefaultConfig(), clock.DefaultNTPConfig())
	nodes := site.AddCluster("alpha", doms, phys.DefaultSpec(), netsim.EthernetGigE())
	out := make([]*Domain, doms)
	for i, n := range nodes {
		h := NewHypervisor(k, f, n, DefaultXenConfig())
		d, err := h.CreateDomain(fmt.Sprintf("d%d", i), netsim.Addr(fmt.Sprintf("vm%d", i)), 1<<30, guest.WatchdogConfig{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = d
	}
	k.RunFor(30 * sim.Second) // boot
	for i, d := range out {
		if d.State() != StateRunning {
			tb.Fatalf("domain %d is %v, want Running", i, d.State())
		}
		buf := make([]byte, stateBytes)
		for j := range buf {
			buf[j] = byte(j)
		}
		d.OS().Spawn(&ballastProg{Buf: buf})
	}
	k.RunFor(5 * sim.Second)
	for _, d := range out {
		if err := d.Pause(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// The LSC save-set shape: eight domains, each holding 1 MiB of guest
// state.
const (
	saveSetDomains    = 8
	saveSetStateBytes = 1 << 20
)

// captureSaveSet captures an image of every domain in set and returns the
// functional image bytes of the whole save set.
func captureSaveSet(tb testing.TB, set []*Domain) int64 {
	var total int64
	for _, d := range set {
		img, err := d.Capture(false)
		if err != nil {
			tb.Fatal(err)
		}
		total += int64(img.Data.Len())
	}
	return total
}

// BenchmarkLSCSaveSet measures one coordinated LSC save set: capture an
// image of every paused domain in the virtual cluster, exactly as the
// Coordinator's save phase does once per epoch. The interesting numbers
// are B/op and allocs/op per epoch: each capture encodes into the
// codec's pooled scratch buffer and allocates its image once, at its
// exact size. TestLSCSaveSetImageBytes gates the image bytes. Run:
//
//	go test -run '^$' -bench BenchmarkLSCSaveSet -benchmem ./internal/vm
func BenchmarkLSCSaveSet(b *testing.B) {
	set := benchCluster(b, saveSetDomains, saveSetStateBytes)
	var imageBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imageBytes = captureSaveSet(b, set)
	}
	b.StopTimer()
	b.ReportMetric(float64(imageBytes)/saveSetDomains, "imgB/domain")
}

// saveSetImageBytes pins one save set's image bytes exactly. The image
// codec writes no type descriptors and orders map entries by key, so the
// encoded length is a pure function of guest state.
const saveSetImageBytes = 8389896

// TestLSCSaveSetImageBytes is the image-size gate for one LSC save set
// of BenchmarkLSCSaveSet's shape.
func TestLSCSaveSetImageBytes(t *testing.T) {
	got := captureSaveSet(t, benchCluster(t, saveSetDomains, saveSetStateBytes))
	if got != saveSetImageBytes {
		t.Fatalf("one save set captured %d image bytes, want exactly %d", got, saveSetImageBytes)
	}
}
