package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// Perfetto / Chrome trace_events export.
//
// Mapping: one trace "process" per physical node and one "thread" per
// VM/domain, so the per-VM pause/save/restore events of one coordinated
// checkpoint line up vertically and the save skew is visually
// inspectable in ui.perfetto.dev. Records with an empty node land in a
// synthetic "site" process (LSC coordinator spans, RM activity, fabric
// drops); records with an empty domain land on the node's host thread.
//
// Determinism: pid/tid assignment is by sorted name, events are emitted
// sorted by (ts, seq), and encoding/json's formatting is a pure function
// of the values — identical runs export identical bytes.

// pfEvent is one Chrome trace_events entry. Field order is fixed.
type pfEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"` // microseconds of virtual time
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`    // instant scope
	Args any     `json:"args,omitempty"` // kvList or {"value": v}
}

// pfCounterArgs is the numeric payload of a counter-track sample.
type pfCounterArgs struct {
	Value float64 `json:"value"`
}

type pfDoc struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

// ConvertJSONL converts a JSONL trace to Chrome/Perfetto trace_events
// JSON, loadable in ui.perfetto.dev or chrome://tracing; dvctrace
// -convert runs it on a recorded trace. The pid/tid metadata needs the
// full node/domain universe and the event stream is (ts, seq)-sorted, so
// conversion reads the whole trace (the golden-file test pins the
// bytes).
func ConvertJSONL(r io.Reader, w io.Writer) error {
	var recs []Record
	err := DecodeJSONL(r, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return err
	}
	return writePerfetto(w, recs)
}

// writePerfetto writes a record slice as trace_events JSON.
func writePerfetto(w io.Writer, recs []Record) error {
	doc := pfDoc{TraceEvents: perfettoEvents(recs), DisplayTimeUnit: "ms"}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// perfettoEvents builds the metadata + event stream.
func perfettoEvents(recs []Record) []pfEvent {
	// Assign pids: sorted node names, with "" (site) first.
	nodeSet := map[string]bool{}
	threadSet := map[string]map[string]bool{} // node -> dom set
	for i := range recs {
		r := &recs[i]
		nodeSet[r.Node] = true
		if threadSet[r.Node] == nil {
			threadSet[r.Node] = map[string]bool{}
		}
		threadSet[r.Node][r.Dom] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes) // "" sorts first: the site process gets pid 1

	pid := map[string]int{}
	tid := map[string]map[string]int{}
	var meta []pfEvent
	for i, n := range nodes {
		pid[n] = i + 1
		pname := "node " + n
		if n == "" {
			pname = "site"
		}
		meta = append(meta, pfEvent{Name: "process_name", Ph: "M", Pid: pid[n], Tid: 0,
			Args: kvList{{"name", pname}}})

		doms := make([]string, 0, len(threadSet[n]))
		for d := range threadSet[n] {
			doms = append(doms, d)
		}
		sort.Strings(doms) // "" sorts first: the host thread gets tid 1
		tid[n] = map[string]int{}
		for j, d := range doms {
			tid[n][d] = j + 1
			tname := d
			if d == "" {
				tname = "(host)"
			}
			meta = append(meta, pfEvent{Name: "thread_name", Ph: "M", Pid: pid[n], Tid: tid[n][d],
				Args: kvList{{"name", tname}}})
		}
	}

	// Event stream sorted by (ts, seq). Emission order is already time-
	// ordered within one kernel, but a multi-trial trace restarts virtual
	// time per trial; the stable sort keeps the file's ts monotonic.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := &recs[order[a]], &recs[order[b]]
		if ra.TS != rb.TS {
			return ra.TS < rb.TS
		}
		return ra.Seq < rb.Seq
	})

	events := meta
	for _, i := range order {
		r := &recs[i]
		name := r.Name
		if name == "" {
			name = string(r.Type)
		}
		ev := pfEvent{
			Name: name,
			Cat:  categoryOf(r.Type),
			Ph:   string(rune(r.Ph)),
			TS:   float64(r.TS) / 1e3,
			Pid:  pid[r.Node],
			Tid:  tid[r.Node][r.Dom],
		}
		switch r.Ph {
		case PhaseInstant:
			ev.S = "t" // thread-scoped instant
			if len(r.Attrs) > 0 {
				ev.Args = kvList(r.Attrs)
			}
		case PhaseBegin, PhaseEnd:
			if len(r.Attrs) > 0 {
				ev.Args = kvList(r.Attrs)
			}
		case PhaseCounter:
			ev.Args = pfCounterArgs{Value: r.Value}
		}
		events = append(events, ev)
	}
	return events
}

// categoryOf maps an event type to its subsystem prefix ("vm", "lsc",
// "tcp", ...), used as the Perfetto category.
func categoryOf(t EventType) string {
	s := string(t)
	if i := strings.IndexByte(s, '.'); i > 0 {
		return s[:i]
	}
	return s
}
