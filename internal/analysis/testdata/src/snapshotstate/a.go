// Fixture for the snapshotstate analyzer: reachability closure from
// //dvc:checkpoint-root types, imgcodec.Register payloads and the
// concrete arguments of imgcodec.Append/Encode/Decode, across nested
// structs, unexported embedding, map values, slices and pointers, and
// the kinds the image codec does not encode.
// Diagnostics land on the root declaration (or the codec call), naming
// the reached field.
package snapshotstate

import (
	"bytes"
	"encoding/gob"

	"dvc/internal/imgcodec"
	"dvc/internal/payload"
)

// Inner is reached through Root.Nested; its unexported field is two
// levels away from the root.
type Inner struct {
	ID    int
	state []byte
}

// Leaf is reached only as a map value.
type Leaf struct {
	Val  float64
	meta string
}

type base struct{ X int }

// Deep exercises unexported embedding and a map-of-slice-of-struct
// chain.
type Deep struct {
	base
	Weights map[uint64][]Matrix
}

type Matrix struct{ Rows []Row }

type Row struct {
	Vals []float64
	tag  byte
}

// Blob owns its gob wire format, which the image codec does not use:
// the walk goes on into it.
type Blob struct{ raw []byte }

func (b Blob) GobEncode() ([]byte, error) { return b.raw, nil }
func (b *Blob) GobDecode(p []byte) error  { b.raw = append(b.raw[:0], p...); return nil }

// Root is a checkpoint root; every problem in its closure is reported
// here, in field-walk order.
//
//dvc:checkpoint-root
type Root struct { // want `Blob\.raw is unexported` `Inner\.state is unexported` `Leaf\.meta is unexported` `Deep\.base is an unexported embedded field` `Row\.tag is unexported` `Root\.Signal contains a chan` `Root\.hidden is unexported`
	Name    string
	Data    Blob
	Rope    payload.Bytes // encoded natively; the walk stops here
	Nested  Inner
	Table   map[int]Leaf
	Items   []*Deep
	Payload any
	Signal  chan int
	hidden  int
}

// CleanRoot's closure is entirely encodable: no diagnostics.
//
//dvc:checkpoint-root
type CleanRoot struct {
	ID   int
	Tags []string
	Meta map[uint16]float64
	Self *CleanRoot
}

// RegisteredPayload becomes a root through imgcodec.Register, not a
// directive; the problem is reported at the Register call.
type RegisteredPayload struct {
	Kind  string
	cache []byte
}

// GobOnly is registered with gob alone, so it is not image state.
type GobOnly struct{ cache []byte }

func init() {
	imgcodec.Register(RegisteredPayload{}) // want `RegisteredPayload\.cache is unexported`
	gob.Register(GobOnly{})
}

// Hidden loses state on every save/restore cycle.
type Hidden struct {
	PC      int
	cursor  int
	pending []string
}

// Unencodable cannot round-trip at all.
type Unencodable struct {
	Name   string
	Resume func() error
	Wake   chan int
}

// SelfMarshal owns a binary wire format, which the image codec ignores:
// it walks the fields anyway.
type SelfMarshal struct {
	secret int
}

func (s SelfMarshal) MarshalBinary() ([]byte, error) { return []byte{byte(s.secret)}, nil }

// Narrow holds one field of each kind the image codec does not encode,
// each reported at the root; a []byte is encoded whole and stays quiet.
//
//dvc:checkpoint-root
type Narrow struct { // want `Narrow\.Grid contains an array \[2\]int, which imgcodec cannot encode` `Narrow\.Ratio contains a float32` `Narrow\.Small contains an int8` `Narrow\.Mid contains an int16` `Narrow\.Wide contains an int32` `Narrow\.Count contains a uint,` `Narrow\.Flag contains a uint8` `Narrow\.Ptr contains a uintptr` `Narrow\.ByName contains a map keyed by string` `Narrow\.ByTiny contains a map keyed by int8` `Narrow\.Rows contains a float32 \(via F\)`
	Raw    []byte
	Grid   [2]int
	Ratio  float32
	Small  int8
	Mid    int16
	Wide   int32
	Count  uint
	Flag   uint8
	Ptr    uintptr
	ByName map[string]int
	ByTiny map[int8]int
	Rows   []struct{ F float32 }
}

// Keyed has a map key the image codec cannot order.
type Keyed struct {
	ByPair map[[2]int]string
}

func registerImage() {
	imgcodec.Register(&Hidden{})      // want `Hidden\.cursor is unexported` `Hidden\.pending is unexported`
	imgcodec.Register(&Unencodable{}) // want `Unencodable\.Resume contains a func, which imgcodec cannot encode` `Unencodable\.Wake contains a chan`
	imgcodec.Register(&SelfMarshal{}) // want `SelfMarshal\.secret is unexported`
	imgcodec.Register(&Keyed{})       // want `Keyed\.ByPair contains a map keyed by \[2\]int, which imgcodec cannot encode`
}

// Concrete codec arguments are roots too, reported at the call.
func encodeImage(buf *bytes.Buffer, clean *CleanRoot, h *Hidden) error {
	b, err := imgcodec.Append(nil, clean)
	if err != nil {
		return err
	}
	if err := imgcodec.Decode(b, h); err != nil { // want `Hidden\.cursor is unexported` `Hidden\.pending is unexported`
		return err
	}
	if err := imgcodec.Encode(buf, h); err != nil { // want `Hidden\.cursor is unexported` `Hidden\.pending is unexported`
		return err
	}
	return imgcodec.Encode(buf, h) //lint:allow snapshotstate fixture proves the escape hatch works
}

// Image is checkpoint state, though the only codec call that writes it
// (Save) erases its static type: the declared root still carries the
// nested field to the analyzer.
//
//dvc:checkpoint-root
type Image struct { // want `Header\.dirty is unexported`
	Header Header
}

// Header hides a field the image codec cannot carry.
type Header struct {
	Version int
	dirty   bool
}

// Save passes an interface value, which names no type to walk: the
// call itself stays quiet.
func Save(v any) ([]byte, error) {
	return imgcodec.Append(nil, v)
}
