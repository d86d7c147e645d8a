package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"dvc/internal/imgcodec"
)

func init() {
	imgcodec.Register(&gatherApp{})
	imgcodec.Register(&scatterApp{})
	imgcodec.Register(&allgatherApp{})
}

// gatherApp gathers rank-stamped blocks at root 1.
type gatherApp struct {
	PC int
	OK bool
}

func (a *gatherApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	const root = 1
	switch a.PC {
	case 0:
		a.PC = 1
		return NewGather(root, []byte{byte(rt.Me), byte(rt.Me * 2)})
	default:
		a.OK = true
		if rt.Me == root {
			blocks := prev.(*Gather).Blocks
			if len(blocks) != rt.Size {
				a.OK = false
				return nil
			}
			for i, b := range blocks {
				if len(b) != 2 || int(b[0]) != i || int(b[1]) != 2*i {
					a.OK = false
				}
			}
		}
		return nil
	}
}

func TestGather(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &gatherApp{} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if !w.app(i).(*gatherApp).OK {
					t.Fatalf("rank %d gather failed", i)
				}
			}
		})
	}
}

// scatterApp scatters distinct blocks from root 0 and verifies receipt.
type scatterApp struct {
	PC int
	OK bool
}

func (a *scatterApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	switch a.PC {
	case 0:
		a.PC = 1
		var blocks [][]byte
		if rt.Me == 0 {
			blocks = make([][]byte, rt.Size)
			for d := range blocks {
				blocks[d] = []byte{byte(100 + d)}
			}
		}
		return NewScatter(0, blocks)
	default:
		mine := prev.(*Scatter).Mine
		a.OK = len(mine) == 1 && int(mine[0]) == 100+rt.Me
		return nil
	}
}

func TestScatter(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &scatterApp{} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if !w.app(i).(*scatterApp).OK {
					t.Fatalf("rank %d scatter failed", i)
				}
			}
		})
	}
}

// allgatherApp checks every rank ends with everyone's block.
type allgatherApp struct {
	PC int
	OK bool
}

func (a *allgatherApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	switch a.PC {
	case 0:
		a.PC = 1
		return NewAllgather([]byte{byte(rt.Me), byte(rt.Me + 1)})
	default:
		blocks := prev.(*Allgather).Blocks
		a.OK = len(blocks) == rt.Size
		if a.OK {
			for i, b := range blocks {
				if len(b) != 2 || int(b[0]) != i || int(b[1]) != i+1 {
					a.OK = false
				}
			}
		}
		return nil
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &allgatherApp{} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if !w.app(i).(*allgatherApp).OK {
					t.Fatalf("rank %d allgather failed", i)
				}
			}
		})
	}
}

func TestFrameCodec(t *testing.T) {
	in := [][]byte{{1, 2, 3}, {}, {4}, bytes.Repeat([]byte{9}, 300)}
	out := decodeFrames(encodeFrames(in))
	if len(out) != len(in) {
		t.Fatalf("decoded %d frames, want %d", len(out), len(in))
	}
	for i := range in {
		if !bytes.Equal(in[i], out[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// Truncated input must not panic.
	if got := decodeFrames([]byte{5, 0, 0, 0, 1}); len(got) != 0 {
		t.Fatalf("truncated frame decoded: %v", got)
	}
}
