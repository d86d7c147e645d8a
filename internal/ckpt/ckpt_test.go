package ckpt

import (
	"testing"
	"testing/quick"

	"dvc/internal/sim"
)

func TestSizeOrdering(t *testing.T) {
	fp := DefaultFootprint(100<<20, 1<<30)
	var prev int64 = -1
	for _, m := range Methods() {
		size := m.ImageBytes(fp)
		if size <= prev {
			t.Fatalf("%v image (%d) not larger than previous (%d)", m, size, prev)
		}
		prev = size
	}
}

func TestTransparencyOrdering(t *testing.T) {
	if !AppLevel.Requirements().SourceChanges {
		t.Fatal("app level should need source changes")
	}
	if !UserLevel.Requirements().Relink || UserLevel.Requirements().SourceChanges {
		t.Fatal("user level should need relink only")
	}
	kr := KernelLevel.Requirements()
	if !kr.KernelModule || kr.Relink || kr.SourceChanges {
		t.Fatal("kernel level should need only a kernel module")
	}
	vr := VMLevel.Requirements()
	if vr.SourceChanges || vr.Relink || vr.KernelModule {
		t.Fatal("VM level must be fully transparent")
	}
	if !vr.TransparentParallel {
		t.Fatal("only VM level gives transparent parallel checkpoints")
	}
	for _, m := range []Method{AppLevel, UserLevel, KernelLevel} {
		if m.Requirements().TransparentParallel {
			t.Fatalf("%v should not be transparently parallel", m)
		}
	}
}

func TestVMLevelSizeIsRAMNotWorkingSet(t *testing.T) {
	small := DefaultFootprint(1<<20, 2<<30) // tiny app, 2GiB guest
	if VMLevel.ImageBytes(small) != 2<<30 {
		t.Fatal("VM image must be whole guest RAM")
	}
	// The paper's point: VM checkpoints pay for unused memory.
	if VMLevel.ImageBytes(small) < 100*AppLevel.ImageBytes(small) {
		t.Fatal("tiny app in big VM should show >100x size gap")
	}
}

func TestEstimatesTimesScaleWithSize(t *testing.T) {
	fp := DefaultFootprint(200<<20, 1<<30)
	ests := Estimates(fp, 60e6)
	if len(ests) != 4 {
		t.Fatalf("got %d estimates", len(ests))
	}
	for i := 1; i < len(ests); i++ {
		if ests[i].SaveTime <= ests[i-1].SaveTime {
			t.Fatalf("save time not increasing: %v then %v", ests[i-1], ests[i])
		}
	}
	// 1GiB at 60MB/s ≈ 17.9s for the VM level.
	vm := ests[3]
	if vm.SaveTime < 15*sim.Second || vm.SaveTime > 20*sim.Second {
		t.Fatalf("VM save time %v, want ~18s", vm.SaveTime)
	}
	if vm.RestoreTime != vm.SaveTime {
		t.Fatal("restore should match save at symmetric bandwidth")
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		AppLevel: "application", UserLevel: "user-level",
		KernelLevel: "kernel-level", VMLevel: "vm-level",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

// Property: for any footprint, image sizes are monotone across methods
// and every size is at least the live data.
func TestPropertySizeMonotone(t *testing.T) {
	f := func(liveMB uint16, slackMB uint16) bool {
		live := int64(liveMB) << 20
		// A guest always has more RAM than the kernel-level image it
		// would hold (the app plus code plus kernel state must fit).
		ram := live + live/8 + (121 << 20) + int64(slackMB)<<20
		fp := DefaultFootprint(live, ram)
		prev := int64(-1)
		for _, m := range Methods() {
			s := m.ImageBytes(fp)
			if s < live || s <= prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
