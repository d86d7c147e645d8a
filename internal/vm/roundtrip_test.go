package vm

import (
	"reflect"
	"testing"
	"unsafe"

	"dvc/internal/sim"
)

// domainHostOnly lists the Domain fields a save/restore deliberately does
// not carry, with the reason. Every other field must come back from the
// image unchanged. A field added to Domain without a decision here fails
// TestDomainRoundTripsThroughImage.
var domainHostOnly = map[string]string{
	"hv":       "the restoring node's hypervisor",
	"os":       "rebuilt from Image.Data by guest.Restore",
	"port":     "re-attached on the restoring node",
	"state":    "a restored domain starts Paused",
	"pausedAt": "host time of the pause that preceded the capture",
}

// TestDomainRoundTripsThroughImage captures a domain, full and delta,
// restores it, and compares every Domain field not on the host-only
// list: either capture records everything a restore needs.
func TestDomainRoundTripsThroughImage(t *testing.T) {
	typ := reflect.TypeOf(Domain{})
	for name := range domainHostOnly {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("host-only list names %q, which Domain does not have", name)
		}
	}
	for _, delta := range []bool{true, false} {
		mode := map[bool]string{true: "delta", false: "full"}[delta]
		t.Run(mode, func(t *testing.T) {
			e, d := bootedDomain(t)
			d.SetDirtyRate(12e6)
			d.MarkClean()
			e.k.RunFor(3 * sim.Second)
			if err := d.Pause(); err != nil {
				t.Fatal(err)
			}
			img, err := d.Capture(delta)
			if err != nil {
				t.Fatal(err)
			}
			d.Destroy()
			d2, err := e.hv(0).RestoreDomain(img)
			if err != nil {
				t.Fatal(err)
			}
			before, after := reflect.ValueOf(d).Elem(), reflect.ValueOf(d2).Elem()
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if _, hostOnly := domainHostOnly[f.Name]; hostOnly {
					continue
				}
				a, b := fieldValue(before, i), fieldValue(after, i)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("Domain.%s is %v before save, %v after restore: carry it in vm.Image or list it as host-only", f.Name, a, b)
				}
			}
		})
	}
}

// TestFullImageCarriesDirtyRate: the full-image path also hands the
// dirty-rate override across a restore.
func TestFullImageCarriesDirtyRate(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(-1) // write-quiescent
	d.Pause()
	img, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	d.Destroy()
	d2, err := e.hv(0).RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	mark := d2.CleanMark()
	e.k.RunFor(10 * sim.Second)
	if got := d2.DirtyBytesSince(mark); got != 0 {
		t.Fatalf("write-quiescent guest dirtied %d bytes after restore", got)
	}
}

// fieldValue reads field i of an addressable struct value, exported or
// not.
func fieldValue(v reflect.Value, i int) any {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}
