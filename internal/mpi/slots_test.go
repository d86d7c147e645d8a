package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&burstApp{})
	imgcodec.Register(&bulkApp{})
}

func TestHeaderTableInterns(t *testing.T) {
	var tb headerTable
	a := tb.header(5, 4096)
	if b := tb.header(5, 4096); &a[0] != &b[0] {
		t.Fatal("one (tag, len) framed with two header buffers")
	}
	want := bytes.Clone(a)
	// (5, 4096) holds the first entry; the next headerTableSize-1 keys
	// fill the table and the rest are framed with fresh headers.
	for i := 0; i < 2*headerTableSize; i++ {
		h := tb.header(100+i, i)
		if tag, n := decodeHeader(h); tag != 100+i || n != i {
			t.Fatalf("header(%d, %d) decodes to (%d, %d)", 100+i, i, tag, n)
		}
		again := tb.header(100+i, i)
		if interned := &h[0] == &again[0]; interned != (i < headerTableSize-1) {
			t.Fatalf("key %d of %d: interned=%v", i+2, headerTableSize, interned)
		}
	}
	if !bytes.Equal(a, want) || &tb.header(5, 4096)[0] != &a[0] {
		t.Fatal("a full table rewrote or evicted an interned header")
	}
}

// burstMsg is one message of a burst: its tag, length and body byte.
type burstMsg struct {
	Tag, Len, Fill int
}

// burstApp has rank 0 send Msgs to rank 1 back to back, and rank 1
// receive them in order and check every body. Bad holds rank 1's first
// mismatch.
type burstApp struct {
	Msgs []burstMsg
	I    int
	Bad  string
}

func (a *burstApp) Step(c Ctx, prev Op) Op {
	if c.RT.Me == 0 {
		if a.I == len(a.Msgs) {
			return nil
		}
		m := a.Msgs[a.I]
		a.I++
		return c.Send(1, m.Tag, bytes.Repeat([]byte{byte(m.Fill)}, m.Len))
	}
	if a.I > 0 && a.Bad == "" {
		m := a.Msgs[a.I-1]
		if got := prev.(*RecvMsg).Data; !bytes.Equal(got, bytes.Repeat([]byte{byte(m.Fill)}, m.Len)) {
			a.Bad = fmt.Sprintf("message %d (tag %d, %d B) arrived as %d B %x...", a.I-1, m.Tag, m.Len, len(got), got[:min(len(got), 8)])
		}
	}
	if a.I == len(a.Msgs) {
		return nil
	}
	a.I++
	return c.Recv(0, a.Msgs[a.I-1].Tag)
}

// TestInternedHeadersNeverAliasLiveData sends a burst that is in flight
// all at once: two messages with one (tag, len), so two unacked messages
// share one interned header; more distinct keys than the header table
// holds, so the last are framed with fresh headers; and a last message
// on the first key once the table is full. A header written in place
// (one per send slot, say) would rewrite the tag and length of an
// unacked message, and rank 1 would fail on a tag mismatch or a wrong
// body.
func TestInternedHeadersNeverAliasLiveData(t *testing.T) {
	msgs := []burstMsg{{Tag: 1, Len: 100, Fill: 0xa1}, {Tag: 1, Len: 100, Fill: 0xa2}}
	for i := 0; i < headerTableSize+2; i++ {
		msgs = append(msgs, burstMsg{Tag: 10 + i, Len: 50 + i, Fill: i})
	}
	msgs = append(msgs, burstMsg{Tag: 1, Len: 100, Fill: 0xa3})
	framed := 0
	for _, m := range msgs {
		framed += headerSize + m.Len
	}
	w := newWorld(t, 2, func(int) App { return &burstApp{Msgs: msgs} })
	// Sample rank 0's send backlog well inside a round trip, to show the
	// whole burst was unacked at once.
	maxBacklog := 0
	for w.k.Now() < sim.Second {
		w.k.RunFor(10 * sim.Microsecond)
		if conns := w.oses[0].Stack().Conns(); len(conns) == 1 {
			maxBacklog = max(maxBacklog, conns[0].SendBacklog())
		}
	}
	w.expectSuccess(t)
	if bad := w.app(1).(*burstApp).Bad; bad != "" {
		t.Fatal(bad)
	}
	if got := w.app(1).(*burstApp).I; got != len(msgs) {
		t.Fatalf("rank 1 received %d of %d messages", got, len(msgs))
	}
	if maxBacklog < framed {
		t.Fatalf("at most %d of the burst's %d framed bytes were unacked at once", maxBacklog, framed)
	}
}

// bulkApp runs Rounds exchanges between ranks 0 and 1: rank 0 sends
// Bytes tagged 9, and rank 1 checks them and replies with 64 bytes
// tagged 10, which rank 0 checks. Every body depends on the round.
type bulkApp struct {
	Rounds, Bytes int
	I, PC         int
	Bad           string
}

func bulkBody(round, n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(round*31+i) ^ salt
	}
	return b
}

func (a *bulkApp) check(prev Op, want []byte) {
	if got := prev.(*RecvMsg).Data; a.Bad == "" && !bytes.Equal(got, want) {
		a.Bad = fmt.Sprintf("round %d: %d B arrived, want %d B of round data", a.I, len(got), len(want))
	}
}

func (a *bulkApp) Step(c Ctx, prev Op) Op {
	for {
		switch {
		case a.I == a.Rounds:
			return nil
		case c.RT.Me == 0 && a.PC == 0:
			a.PC = 1
			return c.Send(1, 9, bulkBody(a.I, a.Bytes, 0))
		case c.RT.Me == 0 && a.PC == 1:
			a.PC = 2
			return c.Recv(1, 10)
		case c.RT.Me == 0:
			a.check(prev, bulkBody(a.I, 64, 0x5a))
			a.I, a.PC = a.I+1, 0
		case a.PC == 0:
			a.PC = 1
			return c.Recv(0, 9)
		case a.PC == 1:
			a.check(prev, bulkBody(a.I, a.Bytes, 0))
			a.PC = 2
			return c.Send(0, 10, bulkBody(a.I, 64, 0x5a))
		default:
			a.I, a.PC = a.I+1, 0
		}
	}
}

// captureMidBulk runs a two-rank bulkApp world until rank 0 is blocked in
// a slot-held SendMsg of its second round and rank 1 in a slot-held
// RecvMsg, then freezes both ranks and returns their images. The
// originals are detached from the fabric.
func captureMidBulk(t *testing.T) (*world, []payload.Bytes) {
	t.Helper()
	w := newWorld(t, 2, func(int) App { return &bulkApp{Rounds: 4, Bytes: 1 << 20} })
	driver := func(r int) *Driver {
		p, _ := w.oses[r].Proc(w.pids[r])
		return p.Program().(*Driver)
	}
	for {
		if w.k.Now() > sim.Second {
			t.Fatal("ranks never blocked in the second round's send and receive")
		}
		w.k.RunFor(100 * sim.Microsecond)
		s, sending := driver(0).Cur.(*SendMsg)
		r, receiving := driver(1).Cur.(*RecvMsg)
		if sending && receiving && s.PC == 1 && r.PC > 0 && driver(0).App.(*bulkApp).I == 1 {
			break
		}
	}
	imgs := make([]payload.Bytes, len(w.oses))
	for i, o := range w.oses {
		o.Freeze()
		w.ports[i].SetUp(false)
	}
	for i, o := range w.oses {
		img, err := guest.EncodeImagePayload(o.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
		w.ports[i].Detach()
	}
	return w, imgs
}

// TestSlotHeldOpsSurviveRestore captures ranks blocked in slot-held ops.
// The image carries each op by value through Driver.Cur, and a restored
// rank starts with fresh slots, so both ranks must finish every round
// with every body intact.
func TestSlotHeldOpsSurviveRestore(t *testing.T) {
	w, imgs := captureMidBulk(t)
	w.k.RunFor(sim.Second)
	wall := func() sim.Time { return w.k.Now() }
	for i, img := range imgs {
		snap, err := guest.DecodeImagePayload(img)
		if err != nil {
			t.Fatal(err)
		}
		o := guest.Restore(w.k, w.f, snap, wall, 1.0)
		w.ports[i] = w.f.Attach(o.Addr(), "c", o.Stack().Deliver)
		w.oses[i] = o
	}
	for _, o := range w.oses {
		o.Thaw()
	}
	w.expectSuccess(t)
	for r := range w.oses {
		a := w.app(r).(*bulkApp)
		if a.Bad != "" || a.I != a.Rounds {
			t.Fatalf("restored rank %d finished %d of %d rounds: %s", r, a.I, a.Rounds, a.Bad)
		}
	}
}

// TestDecodeRejectsBadRanks plants rank indexes outside the world in
// otherwise sound images. Driver.step indexes Runtime.FDs with them
// unchecked, so each would panic once the rank runs; the image decoder
// must reject them instead.
func TestDecodeRejectsBadRanks(t *testing.T) {
	_, imgs := captureMidBulk(t)
	cases := []struct {
		name  string
		rank  int
		plant func(d *Driver)
		want  string
	}{
		{"send to -1", 0, func(d *Driver) { d.Cur.(*SendMsg).To = -1 }, "send to -1"},
		{"receive from Size", 1, func(d *Driver) { d.Cur.(*RecvMsg).From = 2 }, "receive from 2"},
		{"short fds", 1, func(d *Driver) { d.R.FDs = d.R.FDs[:1] }, "1 fds"},
		{"rank past the world", 0, func(d *Driver) { d.R.Me = 2 }, "rank 2"},
		{"collective sub-op", 0, func(d *Driver) { d.Cur = &Barrier{Sub: recv(7, tagBarrier)} }, "receive from 7"},
		{"bcast root", 0, func(d *Driver) { d.Cur = &Bcast{Root: -3} }, "broadcast root -3"},
		{"nil op", 0, func(d *Driver) { d.Cur = (*RecvMsg)(nil) }, "nil *mpi.RecvMsg"},
		{"no runtime", 0, func(d *Driver) { d.R = nil }, "no runtime"},
	}
	for _, tc := range cases {
		snap, err := guest.DecodeImagePayload(imgs[tc.rank])
		if err != nil {
			t.Fatalf("%s: the sound image: %v", tc.name, err)
		}
		tc.plant(snap.Procs[0].Prog.(*Driver))
		img, err := guest.EncodeImagePayload(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := guest.DecodeImagePayload(img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
