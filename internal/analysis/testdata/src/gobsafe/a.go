// Fixture for the gobsafe analyzer: checkpoint payload types must not
// have unexported fields (gob drops them silently, imgcodec rejects
// them) or func/chan fields (neither can encode them).
package gobsafe

import (
	"bytes"
	"encoding/gob"

	"dvc/internal/imgcodec"
	"dvc/internal/payload"
)

// Snapshot mirrors a guest checkpoint image: all exported, gob-safe.
type Snapshot struct {
	PC    int
	Rows  map[int][]float64
	Notes []string
}

// Hidden loses state on every save/restore cycle.
type Hidden struct {
	PC      int
	cursor  int // silently dropped
	pending []string
}

// Unencodable cannot round-trip at all.
type Unencodable struct {
	Name   string
	Resume func() error
	Wake   chan int
}

// Nested hides the problem one level down.
type Nested struct {
	Meta  string
	Inner struct {
		Callback func()
	}
}

// SelfMarshal controls its own gob wire format, so gob's field rules do
// not apply; the image codec ignores GobEncode and walks it anyway.
type SelfMarshal struct {
	secret int
}

func (s *SelfMarshal) GobEncode() ([]byte, error) { return []byte{byte(s.secret)}, nil }
func (s *SelfMarshal) GobDecode(b []byte) error   { s.secret = int(b[0]); return nil }

func register() {
	gob.Register(&Snapshot{})
	gob.Register(&Hidden{})      // want `gob silently drops unexported field Hidden\.cursor` `gob silently drops unexported field Hidden\.pending`
	gob.Register(&Unencodable{}) // want `field Unencodable\.Resume contains a func` `field Unencodable\.Wake contains a chan`
	gob.Register(&Nested{})      // want `field Nested\.Inner contains a func \(via Callback\)`
	gob.Register(&SelfMarshal{})
	gob.RegisterName("hidden", Hidden{}) // want `gob silently drops unexported field Hidden\.cursor` `gob silently drops unexported field Hidden\.pending`
}

// Keyed has a map key the image codec cannot order; gob takes it.
type Keyed struct {
	ByPair map[[2]int]string
}

// Ropes are the image codec's native type: nothing to walk.
type Message struct {
	Tag  int
	Body payload.Bytes
}

func registerImage() {
	imgcodec.Register(&Snapshot{})
	imgcodec.Register(&Message{})
	imgcodec.Register(&Hidden{})      // want `imgcodec rejects unexported field Hidden\.cursor` `imgcodec rejects unexported field Hidden\.pending`
	imgcodec.Register(&Unencodable{}) // want `field Unencodable\.Resume contains a func, which imgcodec cannot encode` `field Unencodable\.Wake contains a chan`
	imgcodec.Register(&SelfMarshal{}) // want `imgcodec rejects unexported field SelfMarshal\.secret`
	imgcodec.Register(&Keyed{})       // want `field Keyed\.ByPair contains a map keyed by \[2\]int, which imgcodec cannot encode`
	gob.Register(&Keyed{})
}

func encodeImage(buf *bytes.Buffer, snap *Snapshot, h *Hidden) error {
	b, err := imgcodec.Append(nil, snap)
	if err != nil {
		return err
	}
	if err := imgcodec.Decode(b, h); err != nil { // want `imgcodec rejects unexported field Hidden\.cursor` `imgcodec rejects unexported field Hidden\.pending`
		return err
	}
	return imgcodec.Encode(buf, h) // want `imgcodec rejects unexported field Hidden\.cursor` `imgcodec rejects unexported field Hidden\.pending`
}

func encode(buf *bytes.Buffer, snap *Snapshot, h *Hidden) error {
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(snap); err != nil {
		return err
	}
	return enc.Encode(h) // want `gob silently drops unexported field Hidden\.cursor` `gob silently drops unexported field Hidden\.pending`
}

// Encoding through an interface is opaque to static analysis; the
// analyzer must stay quiet rather than guess.
func encodeAny(buf *bytes.Buffer, v any) error {
	return gob.NewEncoder(buf).Encode(v)
}

func waived(buf *bytes.Buffer, h *Hidden) error {
	return gob.NewEncoder(buf).Encode(h) //lint:allow gobsafe fixture proves the escape hatch works
}
