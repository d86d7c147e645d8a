package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dvc/internal/sim"
)

// The JSONL trace format: one JSON object per line, in emission order.
// Field order is fixed by the struct declaration and attribute order by
// the KV slice, so two identical runs produce byte-identical files —
// the replay-digest tests depend on this.
//
//	{"seq":12,"ts":2000013000,"ph":"B","ev":"lsc.epoch","dom":"t","name":"epoch","span":12,"attrs":{"gen":"0"}}
type jsonRecord struct {
	Seq   uint64   `json:"seq"`
	TS    int64    `json:"ts"` // virtual nanoseconds
	Ph    string   `json:"ph"`
	Ev    string   `json:"ev"`
	Node  string   `json:"node,omitempty"`
	Dom   string   `json:"dom,omitempty"`
	Name  string   `json:"name,omitempty"`
	Span  uint64   `json:"span,omitempty"`
	Value *float64 `json:"val,omitempty"`
	Attrs kvList   `json:"attrs,omitempty"`
}

// kvList marshals an ordered attribute list as a JSON object whose key
// order is the slice order (encoding/json would sort a map; we want
// emission order, which is deterministic by construction).
type kvList []KV

// MarshalJSON writes {"k":"v",...} in slice order.
func (l kvList) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, kv := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(kv.K)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.V)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON reads an object back preserving key order.
func (l *kvList) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("obs: attrs is not an object")
	}
	out := kvList{}
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := kt.(string)
		if !ok {
			return fmt.Errorf("obs: attrs key is not a string")
		}
		vt, err := dec.Token()
		if err != nil {
			return err
		}
		val, ok := vt.(string)
		if !ok {
			return fmt.Errorf("obs: attrs value for %q is not a string", key)
		}
		out = append(out, KV{key, val})
	}
	*l = out
	return nil
}

func toJSONRecord(r *Record) jsonRecord {
	jr := jsonRecord{
		Seq:  r.Seq,
		TS:   int64(r.TS),
		Ph:   string(rune(r.Ph)),
		Ev:   string(r.Type),
		Node: r.Node,
		Dom:  r.Dom,
		Name: r.Name,
		Span: r.Span,
	}
	if r.Ph == PhaseCounter {
		v := r.Value
		jr.Value = &v
	}
	if len(r.Attrs) > 0 {
		jr.Attrs = kvList(r.Attrs)
	}
	return jr
}

// DecodeJSONL streams a JSONL trace through fn one record at a time,
// holding only the current line in memory — large traces never
// materialize as a slice. The record passed to fn is reused across
// calls except for its Attrs; copy it if it must outlive the call.
// Returning a non-nil error from fn stops the scan and propagates.
func DecodeJSONL(r io.Reader, fn func(rec *Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	var rec Record
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(raw, &jr); err != nil {
			return fmt.Errorf("obs: line %d: %w", line, err)
		}
		if len(jr.Ph) != 1 {
			return fmt.Errorf("obs: line %d: bad phase %q", line, jr.Ph)
		}
		rec = Record{
			Seq:  jr.Seq,
			TS:   sim.Time(jr.TS),
			Ph:   jr.Ph[0],
			Type: EventType(jr.Ev),
			Node: jr.Node,
			Dom:  jr.Dom,
			Name: jr.Name,
			Span: jr.Span,
		}
		if jr.Value != nil {
			rec.Value = *jr.Value
		}
		if len(jr.Attrs) > 0 {
			rec.Attrs = []KV(jr.Attrs)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return sc.Err()
}
